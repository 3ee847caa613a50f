"""A small time-conditioned 3D conv denoiser predicting x0~ logits.

Three same-resolution conv stages (encoder, bottleneck, decoder) with an
additive encoder->decoder skip, plus a final projection to K logits. The
timestep enters as a per-channel bias at every stage, produced by a two-layer
perceptron on top of a sinusoidal embedding. Everything is plain numpy with
hand-written gradients so they can be checked against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import nn
from .checkpoint import load_model, save_model
from .config import typed
from .diffusion import UniformTransition, diffusion_loss_and_grad, q_marginal, sample_field
from .errors import CheckpointError
from .grids import CategoricalField, VoxelGrid, one_hot


@dataclass(frozen=True)
class DenoiserConfig:
    num_classes: int
    in_channels: int  # K, or K+1 when conditioned on an occupancy channel
    hidden: tuple[int, int] = (32, 64)
    kernel: int = 3
    time_dim: int = 32
    time_hidden: int = 64
    num_steps: int = 100  # T, for the embedding range

    def __post_init__(self):
        typed(self)
        sizes = self.hidden + (self.num_classes, self.kernel, self.time_dim, self.time_hidden)
        if min(sizes) < 1 or self.kernel % 2 == 0:
            raise ValueError(f"sizes must be >= 1 and the kernel odd in {self}")
        if self.in_channels not in (self.num_classes, self.num_classes + 1):
            raise ValueError("in_channels must be K or K+1")

    @property
    def conditioned(self) -> bool:
        return self.in_channels == self.num_classes + 1


def param_shapes(config: DenoiserConfig) -> dict[str, tuple[int, ...]]:
    """Name -> shape of every parameter, in init draw order."""
    k, (h1, h2), d, dh = config.kernel, config.hidden, config.time_dim, config.time_hidden
    shapes = {}
    for name, cin, cout in (("enc1", config.in_channels, h1), ("enc2", h1, h2),
                            ("dec1", h2, h1), ("out", h1, config.num_classes)):
        shapes[f"{name}_w"], shapes[f"{name}_b"] = (k, k, k, cin, cout), (cout,)
    shapes.update(temb_w1=(d, dh), temb_b1=(dh,),
                  temb_w2=(dh, h1 + h2 + h1), temb_b2=(h1 + h2 + h1,))
    return shapes


def init_params(config: DenoiserConfig, seed: int) -> dict[str, np.ndarray]:
    """Fan-in-scaled uniform weights and zero biases, deterministic given the seed."""
    rng = np.random.default_rng(seed)
    return {name: nn.init_param(rng, shape) for name, shape in param_shapes(config).items()}


def _time_bias(params, config: DenoiserConfig, t: int):
    e = nn.sinusoidal_embedding(t, config.time_dim)
    pre = e @ params["temb_w1"] + params["temb_b1"]
    h = nn.relu(pre)
    bias = h @ params["temb_w2"] + params["temb_b2"]
    h1, h2 = config.hidden
    return e, pre, h, (bias[:h1], bias[h1 : h1 + h2], bias[h1 + h2 :])


def forward(params: dict, config: DenoiserConfig, x_in: np.ndarray, t: int,
            with_cache: bool = False):
    """Logits (X, Y, Z, K) for input activations (X, Y, Z, in_channels)."""
    if x_in.ndim != 4 or x_in.shape[-1] != config.in_channels:
        raise ValueError(f"expected (X,Y,Z,{config.in_channels}) input, got {x_in.shape}")
    e, tpre, th, (b1, b2, b3) = _time_bias(params, config, t)
    pre1 = nn.conv3d_same(x_in, params["enc1_w"], params["enc1_b"]) + b1
    a1 = nn.relu(pre1)
    pre2 = nn.conv3d_same(a1, params["enc2_w"], params["enc2_b"]) + b2
    a2 = nn.relu(pre2)
    pre3 = nn.conv3d_same(a2, params["dec1_w"], params["dec1_b"]) + b3
    a3 = nn.relu(pre3) + a1  # skip connection
    logits = nn.conv3d_same(a3, params["out_w"], params["out_b"])
    if not with_cache:
        return logits
    cache = dict(x_in=x_in, e=e, tpre=tpre, th=th, pre1=pre1, a1=a1,
                 pre2=pre2, a2=a2, pre3=pre3, a3=a3)
    return logits, cache


def backward(params: dict, config: DenoiserConfig, cache: dict,
             upstream: np.ndarray) -> dict[str, np.ndarray]:
    """Parameter gradients for the given upstream d(loss)/d(logits)."""
    grads = {}
    da3, grads["out_w"], grads["out_b"] = nn.conv3d_same_backward(
        cache["a3"], params["out_w"], upstream)
    da1_skip = da3  # skip branch
    dpre3 = nn.relu_backward(cache["pre3"], da3)
    da2, grads["dec1_w"], grads["dec1_b"] = nn.conv3d_same_backward(
        cache["a2"], params["dec1_w"], dpre3)
    dpre2 = nn.relu_backward(cache["pre2"], da2)
    da1, grads["enc2_w"], grads["enc2_b"] = nn.conv3d_same_backward(
        cache["a1"], params["enc2_w"], dpre2)
    dpre1 = nn.relu_backward(cache["pre1"], da1 + da1_skip)
    _, grads["enc1_w"], grads["enc1_b"] = nn.conv3d_same_backward(
        cache["x_in"], params["enc1_w"], dpre1)

    # time-embedding MLP: each stage bias broadcasts over voxels
    db1 = dpre1.reshape(-1, dpre1.shape[-1]).sum(axis=0)
    db2 = dpre2.reshape(-1, dpre2.shape[-1]).sum(axis=0)
    db3 = dpre3.reshape(-1, dpre3.shape[-1]).sum(axis=0)
    dbias = np.concatenate([db1, db2, db3])
    grads["temb_w2"] = np.outer(cache["th"], dbias)
    grads["temb_b2"] = dbias
    dth = params["temb_w2"] @ dbias
    dtpre = np.where(cache["tpre"] > 0, dth, 0.0)
    grads["temb_w1"] = np.outer(cache["e"], dtpre)
    grads["temb_b1"] = dtpre
    return grads


def build_input(x_t: VoxelGrid, config: DenoiserConfig,
                condition: VoxelGrid | None) -> np.ndarray:
    """One-hot x_t, with the binary condition appended as an extra channel."""
    x = one_hot(x_t, config.num_classes).probs
    if config.conditioned:
        if condition is None:
            raise ValueError("model expects a condition channel")
        if condition.dims != x_t.dims:
            raise ValueError("condition dims must match x_t dims")
        x = np.concatenate([x, condition.occupancy()[..., None].astype(np.float64)], axis=-1)
    elif condition is not None:
        raise ValueError("model has no condition channel")
    return x


def as_denoiser_fn(params: dict, config: DenoiserConfig):
    """Adapter matching the sampler's (x_t, t, condition) -> logits interface."""

    def fn(x_t: VoxelGrid, t: int, condition: VoxelGrid | None) -> CategoricalField:
        return CategoricalField(forward(params, config, build_input(x_t, config, condition), t))

    return fn


def _diffusion_loss(config: DenoiserConfig, trans: UniformTransition, w0: float,
                    rng: np.random.Generator):
    """Per-example hybrid loss for `nn.batch_step`/`nn.fit`.

    An example is an (x0, condition-or-None) pair. Each call draws the timestep
    uniformly, then x_t from q(x_t | x0), both from `rng`.
    """
    if not w0 >= 0:
        raise ValueError(f"need w0 >= 0; got {w0}")
    k = config.num_classes

    def loss_and_grads(params, example):
        x0, condition = example
        t = int(rng.integers(1, trans.schedule.num_steps + 1))
        x_t = sample_field(q_marginal(one_hot(x0, k), t, trans), rng)
        x_in = build_input(x_t, config, condition)
        logits, cache = forward(params, config, x_in, t, with_cache=True)
        loss, vb, aux, dlogits = diffusion_loss_and_grad(
            x0, t, CategoricalField(logits), x_t, w0, trans)
        record = {"loss": loss, "vb": vb, "aux": aux}
        return record, backward(params, config, cache, dlogits.probs)

    return loss_and_grads


def train_step(params: dict, opt_state: nn.AdamState, batch, config: DenoiserConfig,
               trans: UniformTransition, w0: float, rng: np.random.Generator,
               lr: float = 1e-3):
    """One optimization step of the hybrid diffusion loss over a batch.

    `batch` is a sequence of (x0, condition-or-None) pairs; the timestep is
    drawn uniformly per example. Returns (params', opt_state, record).
    """
    new_params, record = nn.batch_step(params, opt_state, batch,
                                       _diffusion_loss(config, trans, w0, rng), lr)
    return new_params, opt_state, record


def fit_diffusion(examples, config: DenoiserConfig, trans: UniformTransition, seed: int,
                  epochs: int, batch_size: int, lr: float, w0: float, log=None):
    """Diffusion training on (x0, condition-or-None) pairs from a fresh init.
    Returns (params, epoch losses)."""
    rng = np.random.default_rng(seed)
    return nn.fit(init_params(config, seed), _diffusion_loss(config, trans, w0, rng),
                  examples, rng, epochs, batch_size, lr, log)


def train_diffusion(dataset, config: DenoiserConfig, trans: UniformTransition,
                    seed: int, epochs: int = 10, batch_size: int = 8,
                    lr: float = 1e-3, w0: float = 1e-3, log=None):
    """Unconditional diffusion training loop. Returns (params, epoch losses)."""
    return fit_diffusion([(g, None) for g in dataset], config, trans, seed,
                         epochs, batch_size, lr, w0, log)


def save_denoiser(path, params: dict, config: DenoiserConfig, extra: dict | None = None):
    save_model(path, "denoiser", params, config, extra)


def load_denoiser(path, expected_config: DenoiserConfig | None = None):
    """Returns (params, config, metadata); errors if an expected config differs."""
    params, config, meta = load_model(path, "denoiser", DenoiserConfig, param_shapes)
    if expected_config is not None and config != expected_config:
        raise CheckpointError(f"config mismatch: checkpoint {config}, expected {expected_config}")
    return params, config, meta
