"""Minimal 3D conv-net building blocks with analytic gradients, in numpy.

Two conv flavors are used by the models:
  * conv3d_same: stride-1, odd kernel, zero same-padding (denoiser stages).
  * patch conv / deconv: kernel == stride, no overlap (VQ-VAE encoder/decoder).

conv3d_same and its dw walk the k^3 taps (`_taps`): each tap's window of the
zero-padded input is copied into one contiguous (V, C) buffer, reused across
taps, so every tap is a single 2-D GEMM over all V voxels.

A one-hot input (the denoiser's first layer) comes as integer indices of its
hot channels. `conv3d_onehot` chooses its path from the shapes alone: with
more input than output channels (the N=1100 index grids) a tap only selects
weight rows, so it gathers them, and its dw scatter-adds dy by selected row;
otherwise (the K=5 voxel grids) it expands the input and runs conv3d_same,
which is faster there. Both give conv3d_same's bits.

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

import functools
import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import TrainingDiverged


def _taps(x: np.ndarray, k: int):
    """(tap, (V, C) patch) for each tap of a k-cube, V = X*Y*Z voxels.

    A patch is the tap's window of the zero-padded input, copied into one
    contiguous buffer, so each tap is a single 2-D GEMM. The buffer is reused:
    a patch is valid only until the next tap is yielded.
    """
    pad = k // 2
    xp = np.pad(x, ((pad, pad), (pad, pad), (pad, pad), (0, 0)))
    sx, sy, sz, c = x.shape
    patch = np.empty((sx * sy * sz, c), dtype=xp.dtype)
    window = patch.reshape(x.shape)
    for i, j, l in itertools.product(range(k), repeat=3):
        window[...] = xp[i : i + sx, j : j + sy, l : l + sz, :]
        yield (i, j, l), patch


def _check_kernel(w: np.ndarray):
    k = w.shape[0]
    if k % 2 == 0 or w.shape[1] != k or w.shape[2] != k:
        raise ValueError("kernel must be cubic with odd size")


def _bias_first(b: np.ndarray, voxels: int, dtype, blocks: int = 1) -> np.ndarray:
    """A (blocks, V, Cout) array of `dtype` whose first block holds the bias in
    every row; the caller fills the other blocks."""
    y = np.empty((blocks, voxels) + b.shape, dtype=dtype)
    y[0] = b
    return y


def conv3d_same(x: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Stride-1 3D convolution with zero same-padding."""
    _check_kernel(w)
    if x.shape[-1] != w.shape[3]:
        raise ValueError(f"channel mismatch: {x.shape[-1]} vs {w.shape[3]}")
    y = _bias_first(b, math.prod(x.shape[:3]), np.result_type(x, w))[0]
    for tap, patch in _taps(x, w.shape[0]):
        y += patch @ w[tap]
    return y.reshape(x.shape[:3] + (-1,))


def conv3d_same_backward(x: np.ndarray, w: np.ndarray, dy: np.ndarray):
    """Parameter gradients (dw, db) of conv3d_same for upstream gradient dy."""
    dw = np.empty_like(w)
    dy2 = dy.reshape(-1, dy.shape[-1])
    for tap, patch in _taps(x, w.shape[0]):
        dw[tap] = patch.T @ dy2
    return dw, dy2.sum(axis=0)


def conv3d_same_adjoint(dy: np.ndarray, w: np.ndarray) -> np.ndarray:
    """Input gradient of conv3d_same: conv3d_same of dy with the flipped, transposed kernel."""
    return conv3d_same(dy, w[::-1, ::-1, ::-1].swapaxes(3, 4), np.zeros(w.shape[3]))


def _expand_onehot(idx: np.ndarray, channels: int, dtype) -> np.ndarray:
    """The dense (X, Y, Z, channels) input whose hot channels `idx` names."""
    x = np.zeros(idx.shape[:3] + (channels + 1,), dtype=dtype)
    np.put_along_axis(x, idx, 1.0, axis=-1)
    return x[..., :channels]


@functools.lru_cache(maxsize=8)
def _neighbors(dims: tuple[int, int, int], k: int):
    """(k^3, V) flat index of the input voxel that each output voxel reads at
    each tap of a k-cube, and the mask of the reads that fall outside the grid."""
    shifts = np.array(list(itertools.product(range(k), repeat=3))).T[:, :, None] - k // 2
    src = np.indices(dims).reshape(3, 1, -1) + shifts
    outside = ((src < 0) | (src >= np.array(dims)[:, None, None])).any(axis=0)
    flat = np.ravel_multi_index(tuple(src), dims, mode="clip")
    flat.flags.writeable = outside.flags.writeable = False
    return flat, outside


def _weight_rows(idx: np.ndarray, k: int, cin: int):
    """The row of w.reshape(-1, Cout) that each hot channel of each output
    voxel's input selects at each tap, (k^3, V, m), and the mask of entries
    that select none (a read outside the grid, or an entry naming no channel)."""
    nbr, outside = _neighbors(idx.shape[:3], k)
    labels = idx.reshape(-1, idx.shape[-1])[nbr]
    return labels + (cin * np.arange(k ** 3))[:, None, None], outside[..., None] | (labels == cin)


def conv3d_onehot(idx: np.ndarray, w: np.ndarray, b: np.ndarray) -> np.ndarray:
    """conv3d_same of the one-hot input whose hot channels `idx` names.

    `idx` is an integer (X, Y, Z, m) array: the m channels that are 1 at each
    voxel, all others 0; an entry equal to Cin names no channel. With Cin >
    Cout each tap's term is the sum of the weight rows w[tap][idx] it gathers;
    otherwise the input is expanded and run through conv3d_same. For m <= 2
    both give conv3d_same's result on the expanded input bit for bit: the
    bias and the k^3 tap terms are summed in the same order.
    """
    _check_kernel(w)
    k, cin, cout = w.shape[0], w.shape[3], w.shape[4]
    if cin <= cout:
        return conv3d_same(_expand_onehot(idx, cin, w.dtype), w, b)
    rows, none = _weight_rows(idx, k, cin)
    rows[none] = 0
    picked = w.reshape(-1, cout)[rows]
    picked[none] = 0
    terms = _bias_first(b, rows.shape[1], w.dtype, k ** 3 + 1)
    terms[1:] = picked[..., 0, :] if idx.shape[-1] == 1 else picked.sum(axis=-2)
    # a reduction over the leading axis adds the blocks in order, as
    # conv3d_same's tap loop does: ((b + t0) + t1) + ...
    return np.add.reduce(terms, axis=0).reshape(idx.shape[:3] + (cout,))


def conv3d_onehot_backward(idx: np.ndarray, w: np.ndarray, dy: np.ndarray):
    """Parameter gradients (dw, db) of conv3d_onehot; with Cin > Cout, dw is a
    scatter-add of dy by selected weight row."""
    k, cin, cout = w.shape[0], w.shape[3], w.shape[4]
    if cin <= cout:
        return conv3d_same_backward(_expand_onehot(idx, cin, w.dtype), w, dy)
    rows, none = _weight_rows(idx, k, cin)
    rows[none] = k ** 3 * cin  # a spare row, dropped below
    dw = np.zeros((k ** 3 * cin + 1, cout), dtype=np.result_type(w, dy))
    dy2 = dy.reshape(-1, cout)
    np.add.at(dw, rows, dy2[None, :, None, :])
    return dw[:-1].reshape(w.shape), dy2.sum(axis=0)


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
    """Standard sin/cos positional features of a (1-based) timestep, periods up to 1e4;
    `dim` is even."""
    half = dim // 2
    freqs = np.exp(-np.log(10000.0) * np.arange(half) / half)
    ang = t * freqs
    return np.concatenate([np.sin(ang), np.cos(ang)])


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
    """One Adam update; returns new params and updates the state's moments in place."""
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    state.step += 1
    c1, c2 = 1 - beta1 ** state.step, 1 - beta2 ** state.step
    out = {}
    for name, p in params.items():
        g = grads[name]
        if name not in state.m:
            state.m[name], state.v[name] = np.zeros_like(p), np.zeros_like(p)
        m, v, tmp = state.m[name], state.v[name], np.empty_like(p)
        m *= beta1
        m += np.multiply(1 - beta1, g, out=tmp)
        v *= beta2
        v += np.multiply(np.multiply(1 - beta2, g, out=tmp), g, out=tmp)
        # p - lr * (m / c1) / (sqrt(v / c2) + eps), in that order
        np.sqrt(np.divide(v, c2, out=tmp), out=tmp)
        tmp += eps
        step = np.divide(m, c1)
        step *= lr
        step /= tmp
        out[name] = np.subtract(p, step, out=step)
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
    if len(data) < 1 or epochs < 1 or batch_size < 1 or not 0 <= lr < math.inf:
        raise ValueError(f"need a non-empty dataset, epochs, batch_size >= 1 and 0 <= lr < inf; "
                         f"got {len(data)} examples, {epochs}, {batch_size}, {lr}")
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
