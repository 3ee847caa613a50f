"""Vector-quantized autoencoder over one-hot voxel fields.

Encoder and decoder are non-overlapping strided ("patch") 3D convolutions,
mirrored exactly, so the shape chain inverts for any configured strides. The
quantizer snaps each latent vector to its nearest codebook row; training uses
the straight-through gradient rule, with the squared quantization error split
into a codebook term (updates codes) and a commitment term (updates encoder).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .checkpoint import load_model, save_model
from .config import Triple, typed
from .diffusion import weighted_cross_entropy
from .grids import CategoricalField, VoxelGrid, argmax_decode, one_hot
from .metrics import inverse_frequency_weights, report_from_pairs

DEAD_CODE_THRESHOLD = 1  # codes used fewer times in an epoch are reset
METRICS_SUBSET = 32  # scenes in each epoch's reconstruction report


@dataclass(frozen=True)
class VQVAEConfig:
    num_classes: int
    num_codes: int = 64
    code_dim: int = 8
    hidden: int = 32
    strides: tuple[Triple, Triple] = ((2, 2, 1), (2, 2, 2))
    beta_commit: float = 0.25

    def __post_init__(self):
        typed(self)
        sizes = (self.num_classes, self.code_dim, self.hidden) + sum(self.strides, ())
        if min(sizes) < 1 or self.num_codes < 2 or self.beta_commit < 0:
            raise ValueError("sizes and strides must be >= 1, num_codes >= 2 and "
                             f"beta_commit >= 0 in {self}")


def param_shapes(config: VQVAEConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in init draw order."""
    k, h, d = config.num_classes, config.hidden, config.code_dim
    p1, p2 = (math.prod(s) for s in config.strides)
    return {"enc1_w": (p1 * k, h), "enc1_b": (h,), "enc2_w": (p2 * h, d), "enc2_b": (d,),
            "dec1_w": (d, p2 * h), "dec1_b": (p2 * h,), "dec2_w": (h, p1 * k),
            "dec2_b": (p1 * k,), "codes": (config.num_codes, d)}


def init_params(config: VQVAEConfig, seed: int) -> dict[str, np.ndarray]:
    rng = np.random.default_rng(seed)
    n = config.num_codes

    def init(name, shape):
        if name == "codes":  # small uniform range, conventional for VQ layers
            return rng.uniform(-1.0 / n, 1.0 / n, size=shape).astype(np.float32).astype(np.float64)
        return nn.init_param(rng, shape)

    return {name: init(name, shape) for name, shape in param_shapes(config).items()}


def encode(params: dict, config: VQVAEConfig, x: CategoricalField, with_cache=False):
    """Latent vectors (h, w, z, d) for a one-hot (or soft) input field."""
    s1, s2 = config.strides
    pre1 = nn.patch_conv(x.probs, params["enc1_w"], params["enc1_b"], s1)
    a1 = nn.relu(pre1)
    z = nn.patch_conv(a1, params["enc2_w"], params["enc2_b"], s2)
    if with_cache:
        return z, dict(x=x.probs, pre1=pre1, a1=a1)
    return z


def quantize(codes: np.ndarray, z: np.ndarray):
    """Nearest-code assignment (ties to the lowest index) and the snapped latents."""
    if z.shape[-1] != codes.shape[1]:
        raise ValueError(f"code dim mismatch: {z.shape[-1]} vs {codes.shape[1]}")
    flat = z.reshape(-1, z.shape[-1])
    d2 = (flat ** 2).sum(axis=1, keepdims=True) - 2.0 * flat @ codes.T + (codes ** 2).sum(axis=1)
    idx = np.argmin(d2, axis=1)
    zq = codes[idx].reshape(z.shape)
    return zq, idx.reshape(z.shape[:3])


def decode(params: dict, config: VQVAEConfig, zq: np.ndarray, with_cache=False):
    """K-channel logits at the original resolution."""
    s1, s2 = config.strides
    h, k = config.hidden, config.num_classes
    u1 = nn.patch_deconv(zq, params["dec1_w"], params["dec1_b"], s2, h)
    a1 = nn.relu(u1)
    logits = nn.patch_deconv(a1, params["dec2_w"], params["dec2_b"], s1, k)
    if with_cache:
        return logits, dict(zq=zq, u1=u1, a1=a1)
    return logits


def vqvae_loss(x: CategoricalField, recon_logits: np.ndarray, z: np.ndarray,
               zq: np.ndarray, weights: np.ndarray, beta_commit: float):
    """(total, recon, codebook_term, commit_term, dlogits).

    recon is the class-weighted cross-entropy, averaged over voxels, and dlogits
    its gradient, which `vqvae_grads` takes; the two quantization terms are the
    mean squared latent error, which play the roles of the stopped-gradient
    codebook and commitment penalties during training.
    """
    if recon_logits.shape != x.probs.shape:
        raise ValueError("reconstruction shape mismatch")
    recon, dlogits = weighted_cross_entropy(recon_logits, x.probs, weights)
    msq = float(np.mean(((z - zq) ** 2).sum(axis=-1)))
    return recon + msq + beta_commit * msq, recon, msq, beta_commit * msq, dlogits


def vqvae_grads(params: dict, config: VQVAEConfig, dlogits: np.ndarray,
                enc_cache: dict, dec_cache: dict, z: np.ndarray, zq: np.ndarray,
                idx: np.ndarray):
    """Analytic gradients of the training loss under the straight-through rule,
    given the reconstruction's logit gradient `dlogits` from `vqvae_loss`."""
    s1, s2 = config.strides
    npos = int(np.prod(z.shape[:3]))
    grads = {}

    # reconstruction path back through the decoder
    grads["dec2_w"], grads["dec2_b"] = nn.patch_deconv_backward(dec_cache["a1"], dlogits, s1)
    du1 = nn.relu_backward(dec_cache["u1"], nn.patch_conv(dlogits, params["dec2_w"].T, 0.0, s1))
    grads["dec1_w"], grads["dec1_b"] = nn.patch_deconv_backward(dec_cache["zq"], du1, s2)

    # straight-through: the decoder's input gradient flows to the encoder as-is;
    # the commitment term adds beta * d/dz of the mean squared latent error
    dz = (nn.patch_conv(du1, params["dec1_w"].T, 0.0, s2)
          + config.beta_commit * 2.0 * (z - zq) / npos)
    grads["enc2_w"], grads["enc2_b"] = nn.patch_conv_backward(enc_cache["a1"], dz, s2)
    da1e = nn.patch_deconv(dz, params["enc2_w"].T, 0.0, s2, config.hidden)
    dpre1 = nn.relu_backward(enc_cache["pre1"], da1e)
    grads["enc1_w"], grads["enc1_b"] = nn.patch_conv_backward(enc_cache["x"], dpre1, s1)

    # codebook term: pulls each used code toward its assigned latents
    dcodes = np.zeros_like(params["codes"])
    diff = 2.0 * (zq - z).reshape(-1, z.shape[-1]) / npos
    np.add.at(dcodes, idx.reshape(-1), diff)
    grads["codes"] = dcodes
    return grads


def reinit_dead_codes(codes: np.ndarray, usage: np.ndarray, recent_latents: np.ndarray,
                      threshold: int, rng: np.random.Generator):
    """Reset under-used codes to random recent encoder outputs.

    Returns (new codes, number replaced). `recent_latents` is a (M, d) buffer.
    """
    if recent_latents.size == 0:
        raise ValueError("empty latent buffer")
    dead = np.flatnonzero(usage < threshold)
    new = codes.copy()
    if dead.size:
        picks = rng.integers(0, recent_latents.shape[0], size=dead.size)
        new[dead] = recent_latents[picks]
    return new, int(dead.size)


@dataclass
class VQVAETrainResult:
    params: dict
    config: VQVAEConfig
    weights: np.ndarray
    history: list = field(default_factory=list)  # per-epoch MetricsReport


def reconstruct(params: dict, config: VQVAEConfig, grid: VoxelGrid) -> VoxelGrid:
    x = one_hot(grid, config.num_classes)
    z = encode(params, config, x)
    zq, _ = quantize(params["codes"], z)
    logits = decode(params, config, zq)
    return argmax_decode(CategoricalField(logits))


def train_vqvae(dataset, config: VQVAEConfig, seed: int, epochs: int = 20,
                batch_size: int = 8, lr: float = 1e-3, log=None) -> VQVAETrainResult:
    """End-to-end VQ-VAE training; reports reconstruction IoU/mIoU per epoch."""
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    rng = np.random.default_rng(seed)
    weights = inverse_frequency_weights(dataset, config.num_classes)
    eval_scenes = dataset[:METRICS_SUBSET]
    usage = np.zeros(config.num_codes, dtype=np.int64)
    buffer = []
    reports = []

    def loss_and_grads(params, g):
        x = one_hot(g, config.num_classes)
        z, enc_cache = encode(params, config, x, with_cache=True)
        zq, idx = quantize(params["codes"], z)
        logits, dec_cache = decode(params, config, zq, with_cache=True)
        total, *_, dlogits = vqvae_loss(x, logits, z, zq, weights, config.beta_commit)
        usage[:] += np.bincount(idx.reshape(-1), minlength=config.num_codes)
        buffer.append(z.reshape(-1, config.code_dim))
        grads = vqvae_grads(params, config, dlogits, enc_cache, dec_cache, z, zq, idx)
        return {"loss": total}, grads

    def end_epoch(params):
        params["codes"], _ = reinit_dead_codes(
            params["codes"], usage, np.concatenate(buffer, axis=0), DEAD_CODE_THRESHOLD, rng)
        usage[:] = 0
        buffer.clear()
        recons = ((reconstruct(params, config, g), g) for g in eval_scenes)
        reports.append(report_from_pairs(recons, config.num_classes))
        return params, f" miou {reports[-1].miou:.4f}"

    params, _ = nn.fit(init_params(config, seed), loss_and_grads, dataset, rng,
                       epochs, batch_size, lr, log, end_epoch)
    return VQVAETrainResult(params, config, weights, reports)


def save_vqvae(path, result: VQVAETrainResult, extra: dict | None = None):
    params = dict(result.params, class_weights=result.weights)
    save_model(path, "vqvae", params, result.config, extra)


def load_vqvae(path) -> VQVAETrainResult:
    params, config, _ = load_model(path, "vqvae", VQVAEConfig, lambda c: dict(
        param_shapes(c), class_weights=(c.num_classes,)))
    weights = params.pop("class_weights")
    return VQVAETrainResult(params, config, weights, [])
