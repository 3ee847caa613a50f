"""Minimal 3D conv-net building blocks with analytic gradients, in numpy.

Two conv flavors are used by the models:
  * conv3d_same: stride-1, odd kernel, zero same-padding (denoiser stages).
  * patch conv / deconv: kernel == stride, no overlap (VQ-VAE encoder/decoder).

Layouts are channels-last: activations (X, Y, Z, C); same-conv weights
(k, k, k, Cin, Cout); patch weights (prod(stride) * Cin, Cout).

Each `*_backward` returns only the parameter gradients (dw, db). An input
gradient is the adjoint's forward pass, run only where a caller reads it:
`conv3d_same_adjoint(dy, w)`, `patch_deconv(dy, w.T, 0.0, stride, Cin)` for a
patch conv and `patch_conv(dy, w.T, 0.0, stride)` for a patch deconv.

Adam and the one minibatch training loop (`batch_step`, `fit`) that every
model trains with live here too.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingDiverged


def _taps(x: np.ndarray, k: int):
    """(tap, window of the zero-padded input it multiplies) for each tap of a k-cube."""
    pad = k // 2
    xp = np.pad(x, ((pad, pad), (pad, pad), (pad, pad), (0, 0)))
    sx, sy, sz = x.shape[:3]
    for i, j, l in itertools.product(range(k), repeat=3):
        yield (i, j, l), xp[i : i + sx, j : j + sy, l : l + sz, :]


def conv3d_same(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stride-1 3D convolution with zero same-padding."""
    k = w.shape[0]
    if k % 2 == 0 or w.shape[1] != k or w.shape[2] != k:
        raise ValueError("kernel must be cubic with odd size")
    if x.shape[-1] != w.shape[3]:
        raise ValueError(f"channel mismatch: {x.shape[-1]} vs {w.shape[3]}")
    y = np.tile(b, x.shape[:3] + (1,)).astype(np.float64)
    for tap, patch in _taps(x, k):
        y += patch @ w[tap]
    return y


def conv3d_same_backward(x: np.ndarray, w: np.ndarray, dy: np.ndarray):
    """Parameter gradients (dw, db) of conv3d_same for upstream gradient dy."""
    dw = np.zeros_like(w)
    dy2 = dy.reshape(-1, dy.shape[-1])
    for tap, patch in _taps(x, w.shape[0]):
        dw[tap] = patch.reshape(-1, patch.shape[-1]).T @ dy2
    return dw, dy2.sum(axis=0)


def conv3d_same_adjoint(dy: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Input gradient of conv3d_same: conv3d_same of dy with the flipped, transposed kernel."""
    return conv3d_same(dy, w[::-1, ::-1, ::-1].swapaxes(3, 4), np.zeros(w.shape[3]))


def patchify(x: np.ndarray, stride: tuple[int, int, int]) -> np.ndarray:
    """Rearrange (X, Y, Z, C) into non-overlapping blocks:
    (X/sx, Y/sy, Z/sz, sx*sy*sz*C)."""
    sx, sy, sz = stride
    gx, gy, gz, c = x.shape
    if gx % sx or gy % sy or gz % sz:
        raise ValueError(f"dims {x.shape[:3]} not divisible by stride {stride}")
    v = x.reshape(gx // sx, sx, gy // sy, sy, gz // sz, sz, c)
    return v.transpose(0, 2, 4, 1, 3, 5, 6).reshape(gx // sx, gy // sy, gz // sz, sx * sy * sz * c)


def unpatchify(p: np.ndarray, stride: tuple[int, int, int], channels: int) -> np.ndarray:
    """Inverse of patchify."""
    sx, sy, sz = stride
    hx, hy, hz = p.shape[:3]
    v = p.reshape(hx, hy, hz, sx, sy, sz, channels)
    return v.transpose(0, 3, 1, 4, 2, 5, 6).reshape(hx * sx, hy * sy, hz * sz, channels)


def patch_conv(x, w, b, stride):
    """Strided conv with kernel == stride (block linear map)."""
    return patchify(x, stride) @ w + b


def _dense_backward(x, dy):
    """Parameter gradients (dw, db) of y = x @ w + b over every leading axis."""
    flat_dy = dy.reshape(-1, dy.shape[-1])
    return x.reshape(-1, x.shape[-1]).T @ flat_dy, flat_dy.sum(axis=0)


def patch_conv_backward(x, dy, stride):
    return _dense_backward(patchify(x, stride), dy)


def patch_deconv(z, w, b, stride, out_channels):
    """Transposed counterpart: (h, w, z, Cin) -> (h*sx, w*sy, z*sz, Cout)."""
    p = z @ w + b
    return unpatchify(p, stride, out_channels)


def patch_deconv_backward(z, dy, stride):
    return _dense_backward(z, patchify(dy, stride))


def relu(x):
    return np.maximum(x, 0.0)


def relu_backward(x, dy):
    return np.where(x > 0, dy, 0.0)


def sinusoidal_embedding(t: int, dim: int) -> np.ndarray:
    """Standard sin/cos positional features of a (1-based) timestep, periods up to 1e4."""
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    ang = t * freqs
    emb = np.concatenate([np.sin(ang), np.cos(ang)])
    if dim % 2:
        emb = np.concatenate([emb, [0.0]])
    return emb


def fan_in_uniform(rng: np.random.Generator, shape, fan_in: int) -> np.ndarray:
    """U(-1/sqrt(fan_in), 1/sqrt(fan_in)), drawn in float32 then widened so
    checkpoint round-trips are exact."""
    bound = 1.0 / np.sqrt(fan_in)
    return rng.uniform(-bound, bound, size=shape).astype(np.float32).astype(np.float64)


def init_param(rng: np.random.Generator, shape) -> np.ndarray:
    """Zeros for a bias (1-D); else `fan_in_uniform` over all but the last axis."""
    if len(shape) == 1:
        return np.zeros(shape)
    return fan_in_uniform(rng, shape, math.prod(shape[:-1]))


@dataclass
class AdamState:
    """Per-parameter first/second moment accumulators."""

    step: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_step(params: dict, grads: dict, state: AdamState, lr: float = 1e-3) -> dict:
    """One Adam update; returns new params, mutates the state in place."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    state.step += 1
    t = state.step
    out = {}
    for name, p in params.items():
        g = grads[name]
        m = state.m.get(name, np.zeros_like(p))
        v = state.v.get(name, np.zeros_like(p))
        m = beta1 * m + (1 - beta1) * g
        v = beta2 * v + (1 - beta2) * g * g
        state.m[name] = m
        state.v[name] = v
        mhat = m / (1 - beta1 ** t)
        vhat = v / (1 - beta2 ** t)
        out[name] = p - lr * mhat / (np.sqrt(vhat) + eps)
    return out


def batch_step(params: dict, opt_state: AdamState, batch, loss_and_grads, lr: float):
    """One Adam step on the batch-mean gradient.

    `loss_and_grads(params, example)` returns (record, grads), where `record`
    maps names to floats and holds at least "loss". Gradients are summed in
    batch order, then divided by the batch size. Returns (params', mean record).
    """
    if len(batch) == 0:
        raise ValueError("empty batch")
    totals = {}
    grad_sum = {name: np.zeros_like(p) for name, p in params.items()}
    for example in batch:
        record, grads = loss_and_grads(params, example)
        if not np.isfinite(record["loss"]):
            raise TrainingDiverged(f"non-finite loss {record['loss']}")
        for key, value in record.items():
            totals[key] = totals.get(key, 0.0) + value
        for name in grad_sum:
            grad_sum[name] += grads[name]
    n = len(batch)
    for name in grad_sum:
        grad_sum[name] /= n
    return adam_step(params, grad_sum, opt_state, lr=lr), {k: v / n for k, v in totals.items()}


def fit(params: dict, loss_and_grads, data, rng: np.random.Generator, epochs: int,
        batch_size: int, lr: float, log=None, end_epoch=None):
    """Minibatch Adam over `data`, reshuffled each epoch from `rng`.

    `end_epoch(params)`, if given, runs after each epoch's last step and
    returns (params', text appended to the log line). Returns (params, history),
    the history holding each epoch's mean of the batch-mean losses.
    """
    if epochs < 1 or batch_size < 1 or not 0 <= lr < math.inf:
        raise ValueError(f"need epochs, batch_size >= 1 and 0 <= lr < inf; got {epochs}, "
                         f"{batch_size}, {lr}")
    opt = AdamState()
    history = []
    for epoch in range(epochs):
        order = rng.permutation(len(data))
        losses = []
        for start in range(0, len(order), batch_size):
            batch = [data[i] for i in order[start : start + batch_size]]
            params, record = batch_step(params, opt, batch, loss_and_grads, lr)
            losses.append(record["loss"])
        note = ""
        if end_epoch:
            params, note = end_epoch(params)
        history.append(float(np.mean(losses)))
        if log:
            log(f"epoch {epoch + 1} loss {history[-1]:.4f}{note}")
    return params, history
