"""Reference code that only the tests use: the one-step forward kernel, the
loss without its gradient, and the voxel-vs-latent wall-clock comparison of
criterion 10."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from scenediff import denoiser as dn
from scenediff import nn
from scenediff.diffusion import diffusion_loss_and_grad, sample_loop
from scenediff.grids import CategoricalField, VoxelGrid
from scenediff.schedule import UniformTransition, make_schedule


def q_onestep(x_prev: CategoricalField, t: int, trans: UniformTransition) -> CategoricalField:
    """Single-step row action of Q_t: (1 - beta_t) * p + beta_t / K."""
    b = trans.schedule.beta_at(t)
    k = trans.num_classes
    return CategoricalField((1.0 - b) * x_prev.probs + b / k)


def diffusion_loss(x0: VoxelGrid, t: int, model_logits: CategoricalField,
                   x_t: VoxelGrid, w0: float, trans: UniformTransition):
    """(total, vb_term, aux_term); see diffusion_loss_and_grad."""
    total, vb, aux, _ = diffusion_loss_and_grad(x0, t, model_logits, x_t, w0, trans)
    return total, vb, aux


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
