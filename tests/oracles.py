"""Reference code that only the tests use: a second schedule, the one-step
forward kernel, the loss without its gradient, the exhaustive posterior, the
finite-difference gradient checker, the per-voxel PLY writer, and the
voxel-vs-latent wall-clock comparison of criterion 10."""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from scenediff import denoiser as dn
from scenediff import nn
from scenediff import vqvae as vq
from scenediff.diffusion import diffusion_loss_and_grad, sample_loop
from scenediff.grids import CategoricalField, ClassTable, VoxelGrid
from scenediff.schedule import NoiseSchedule, UniformTransition, make_schedule


def schedule(kind: str, num_steps: int) -> NoiseSchedule:
    """The library's "cosine" schedule, or "linear": beta linearly spaced in
    [1e-4, 0.5], a second input for the oracles that hold for any schedule."""
    if kind == "linear":
        return NoiseSchedule(np.linspace(1e-4, 0.5, num_steps))
    return make_schedule(kind, num_steps)


def q_onestep(x_prev: CategoricalField, t: int, trans: UniformTransition) -> CategoricalField:
    """Single-step row action of Q_t: (1 - beta_t) * p + beta_t / K."""
    b = trans.schedule.beta_at(t)
    k = trans.num_classes
    return CategoricalField((1.0 - b) * x_prev.probs + b / k)


def diffusion_loss(x0: VoxelGrid, t: int, logits: np.ndarray, x_t: VoxelGrid, w0: float,
                   trans: UniformTransition):
    """(total, vb_term, aux_term); see diffusion_loss_and_grad."""
    total, vb, aux, _ = diffusion_loss_and_grad(x0, t, logits, x_t, w0, trans)
    return total, vb, aux


def posterior_enumeration(xt_label: int, p0: np.ndarray, t: int, trans: UniformTransition):
    """Exhaustive K^2 reverse-step posterior of one voxel from the dense matrices:
    q(x_{t-1}, x_t | x0) / q(x_t | x0) for each candidate x0 = m, mixed over p0."""
    k = trans.num_classes
    qt = trans.single_step_matrix(t)
    qbar_prev = trans.cumulative_matrix(t - 1)
    out = np.zeros(k)
    for m in range(k):
        joint = qbar_prev[m] * qt[:, xt_label]
        out += p0[m] * joint / joint.sum()
    return out


FD_FLOOR = 1e6  # in units of a central difference's rounding error; see fd_worst


def fd_worst(params: dict, grads: dict, evaluate, h: float, subset: int = 1) -> float:
    """Worst relative error |fd - g| / max(|fd|, |g|, floor) of the analytic
    gradients against central differences, over every `subset`-th parameter
    entry (by name, then C order). `evaluate()` returns the scalar and the ReLU
    pre-activations at the current parameters; each entry is moved in place and
    restored, also when an assertion fires. Central differences hold only where
    no ReLU changes sign between the points they difference, so that is asserted
    at every step.

    Rounding the scalar f leaves a central difference an absolute error of
    order eps * |f| / h; the tests' differences measured up to 12 times that.
    Gradients below FD_FLOOR times that size are judged by their absolute
    error, so rounding alone reads about 1e-5 at most, whatever the input."""
    value, pre = evaluate()
    floor = FD_FLOOR * np.finfo(np.float64).eps * abs(value) / h
    signs = [a > 0 for a in pre]
    worst = 0.0
    count = 0
    for name, arr in sorted(params.items()):
        it = np.nditer(arr, flags=["multi_index"])
        for _ in it:
            count += 1
            if count % subset:
                continue
            i = it.multi_index
            orig = arr[i]
            values = []
            try:
                for step in (h, -h):
                    arr[i] = orig + step
                    value, pre = evaluate()
                    assert all(np.array_equal(a > 0, s) for a, s in zip(pre, signs)), \
                        f"{name}{list(i)} +- h moves a ReLU pre-activation across zero"
                    values.append(value)
            finally:
                arr[i] = orig
            fd = (values[0] - values[1]) / (2 * h)
            worst = max(worst, abs(fd - grads[name][i]) / max(abs(fd), abs(grads[name][i]), floor))
    return worst


def denoiser_fd(params: dict, config: dn.DenoiserConfig, x: np.ndarray, t: int,
                upstream: np.ndarray, h: float, subset: int = 1) -> float:
    """`fd_worst` of the denoiser's parameter gradients of <upstream, forward(x)>."""
    _, cache = dn.forward(params, config, x, t, with_cache=True)
    grads = dn.backward(params, config, cache, upstream)

    def evaluate():
        logits, cache = dn.forward(params, config, x, t, with_cache=True)
        pre = [cache[key] for key in ("tpre", "pre1", "pre2", "pre3")]
        return float((logits * upstream).sum()), pre

    return fd_worst(params, grads, evaluate, h, subset)


def vqvae_fd(params: dict, config: vq.VQVAEConfig, grid: VoxelGrid, weights: np.ndarray,
             h: float, subset: int = 1) -> float:
    """`fd_worst` of the VQ-VAE's straight-through gradients. The surrogate loss
    freezes the code assignment and stop-gradients at the base point, which is
    exactly what the straight-through rule assumes locally: the decoder sees
    z + (zq - z) with the offset held constant, the codebook term sees a
    constant z, the commitment term a constant zq."""
    z0, enc_cache = vq.encode(params, config, grid, with_cache=True)
    x = enc_cache["x"]
    zq0, idx = vq.quantize(params["codes"], z0)
    logits, dec_cache = vq.decode(params, config, zq0, with_cache=True)
    *_, dlogits = vq.vqvae_loss(x, logits, z0, zq0, weights)
    grads = vq.vqvae_grads(params, config, dlogits, enc_cache, dec_cache, z0, zq0, idx)

    def evaluate():
        z, enc = vq.encode(params, config, grid, with_cache=True)
        logits, dec = vq.decode(params, config, z + (zq0 - z0), with_cache=True)
        _, recon, *_ = vq.vqvae_loss(x, logits, z, z, weights)
        npos = int(np.prod(z.shape[:3]))
        codebook = float(((params["codes"][idx] - z0) ** 2).sum()) / npos
        commit = vq.BETA_COMMIT * float(((z - zq0) ** 2).sum()) / npos
        return recon + codebook + commit, [enc["pre1"], dec["u1"]]

    return fd_worst(params, grads, evaluate, h, subset)


def export_ply_loop(grid: VoxelGrid, table: ClassTable, path):
    """`sceneio.export_ply` as one formatted line per voxel: the byte reference."""
    xs, ys, zs = np.nonzero(grid.labels != 0)
    labels = grid.labels[xs, ys, zs]
    lines = ["ply", "format ascii 1.0", f"element vertex {len(xs)}",
             "property float x", "property float y", "property float z",
             "property uchar red", "property uchar green", "property uchar blue",
             "end_header"]
    colors = np.asarray(table.colors, dtype=np.int64)
    for x, y, z, lab in zip(xs, ys, zs, labels):
        r, g, b = colors[lab]
        lines.append(f"{x + 0.5} {y + 0.5} {z + 0.5} {r} {g} {b}")
    Path(path).write_text("\n".join(lines) + "\n")


@dataclass
class TimingRow:
    label: str
    resolution: tuple[int, int, int]
    train_seconds: float
    sample_seconds: float


@dataclass
class TimingReport:
    rows: list = field(default_factory=list)

    def as_text(self) -> str:
        lines = [f"{'model':<14}{'resolution':<14}{'train_s/epoch':>14}{'sample_s':>12}"]
        for r in self.rows:
            res = "x".join(str(d) for d in r.resolution)
            lines.append(f"{r.label:<14}{res:<14}{r.train_seconds:>14.4f}{r.sample_seconds:>12.4f}")
        return "\n".join(lines)


def _median_time(fn, trials: int) -> float:
    fn()  # warm-up
    times = []
    for _ in range(trials):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return float(np.median(times))


def timing_report(voxel_dims: tuple[int, int, int], num_classes: int,
                  latent_dims_list: list[tuple[int, int, int]], num_codes: int,
                  num_steps: int = 20, trials: int = 5,
                  hidden: tuple[int, int] = (8, 16), train_examples: int = 4) -> TimingReport:
    """Median wall-clock of training (one small epoch) and per-scene sampling
    for voxel-space diffusion vs latent-space diffusion at each resolution.

    Uses freshly initialized denoisers of identical widths, a cosine schedule and
    seed 0; timings measure the diffusion machinery, not model quality.
    """
    trans_vox = UniformTransition(num_classes, make_schedule("cosine", num_steps))
    trans_lat = UniformTransition(num_codes, make_schedule("cosine", num_steps))
    report = TimingReport()

    def make_setup(k, dims, trans):
        config = dn.DenoiserConfig(num_classes=k, in_channels=k, hidden=hidden,
                                   num_steps=num_steps)
        params = dn.init_params(config, 0)
        rng = np.random.default_rng(0)
        scenes = [VoxelGrid(rng.integers(0, k, size=dims)) for _ in range(train_examples)]

        def train_epoch():
            opt = nn.AdamState()
            r = np.random.default_rng(0)
            dn.train_step(params, opt, [(s, None) for s in scenes], config, trans, 1e-3, r)

        def sample_one():
            r = np.random.default_rng(0)
            sample_loop(dn.as_denoiser_fn(params, config), dims, trans, r)

        return train_epoch, sample_one

    train_fn, sample_fn = make_setup(num_classes, voxel_dims, trans_vox)
    report.rows.append(TimingRow("voxel", voxel_dims,
                                 _median_time(train_fn, trials),
                                 _median_time(sample_fn, trials)))
    for dims in latent_dims_list:
        train_fn, sample_fn = make_setup(num_codes, dims, trans_lat)
        report.rows.append(TimingRow("latent", dims,
                                     _median_time(train_fn, trials),
                                     _median_time(sample_fn, trials)))
    return report
