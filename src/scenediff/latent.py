"""Diffusion over codebook indices, the two-stage sampling pipeline, and the
wall-clock comparison harness."""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from . import denoiser as dn
from . import nn
from .diffusion import sample_loop
from .grids import CategoricalField, VoxelGrid, argmax_decode, one_hot
from .schedule import UniformTransition, make_schedule
from .vqvae import VQVAETrainResult, decode, encode, quantize


def encode_dataset(vq: VQVAETrainResult, dataset) -> list[VoxelGrid]:
    """Index grids for every scene via encode + quantize."""
    out = []
    for g in dataset:
        z = encode(vq.params, vq.config, one_hot(g, vq.config.num_classes))
        _, idx = quantize(vq.params["codes"], z)
        out.append(VoxelGrid(idx))
    return out


def train_latent_denoiser(dataset, vq: VQVAETrainResult, trans: UniformTransition,
                          seed: int, epochs: int = 10, batch_size: int = 8,
                          lr: float = 1e-3, w0: float = 1e-3,
                          hidden: tuple[int, int] = (16, 32), log=None):
    """Train an index-space denoiser (N input/output channels) on encoded scenes."""
    n = vq.config.num_codes
    if trans.num_classes != n:
        raise ValueError("transition category count must equal the codebook size")
    config = dn.DenoiserConfig(num_classes=n, in_channels=n, hidden=hidden,
                               num_steps=trans.schedule.num_steps)
    index_grids = encode_dataset(vq, dataset)
    params, history = dn.fit_diffusion([(g, None) for g in index_grids], config, trans, seed,
                                       epochs, batch_size, lr, w0, log)
    return params, config, history


def sample_latent(latent_params: dict, latent_config: dn.DenoiserConfig,
                  vq: VQVAETrainResult, dims_latent: tuple[int, int, int],
                  trans: UniformTransition, rng: np.random.Generator) -> VoxelGrid:
    """Sample an index grid, snap through the codebook, decode to voxels."""
    n = vq.config.num_codes
    if latent_config.num_classes != n or trans.num_classes != n:
        raise ValueError(
            f"latent model has {latent_config.num_classes} classes and its transitions "
            f"{trans.num_classes}, but the VQ-VAE codebook has {n} codes")
    idx = sample_loop(dn.as_denoiser_fn(latent_params, latent_config), dims_latent, trans, rng)
    zq = vq.params["codes"][idx.labels]
    logits = decode(vq.params, vq.config, zq)
    return argmax_decode(CategoricalField(logits))


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

    def write_csv(self, path):
        with open(path, "w", newline="") as f:
            w = csv.writer(f)
            w.writerow(["model", "resolution", "train_seconds_per_epoch", "sample_seconds"])
            for r in self.rows:
                w.writerow([r.label, "x".join(str(d) for d in r.resolution),
                            f"{r.train_seconds:.6f}", f"{r.sample_seconds:.6f}"])


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
                  hidden: tuple[int, int] = (8, 16), schedule_kind: str = "cosine",
                  seed: int = 0, train_examples: int = 4) -> TimingReport:
    """Median wall-clock of training (one small epoch) and per-scene sampling
    for voxel-space diffusion vs latent-space diffusion at each resolution.

    Uses freshly initialized denoisers of identical widths; timings measure the
    diffusion machinery, not model quality.
    """
    trans_vox = UniformTransition(num_classes, make_schedule(schedule_kind, num_steps))
    trans_lat = UniformTransition(num_codes, make_schedule(schedule_kind, num_steps))
    report = TimingReport()

    def make_setup(k, dims, trans):
        config = dn.DenoiserConfig(num_classes=k, in_channels=k, hidden=hidden,
                                   num_steps=num_steps)
        params = dn.init_params(config, seed)
        rng = np.random.default_rng(seed)
        scenes = [VoxelGrid(rng.integers(0, k, size=dims)) for _ in range(train_examples)]

        def train_epoch():
            opt = nn.AdamState()
            r = np.random.default_rng(seed)
            dn.train_step(params, opt, [(s, None) for s in scenes], config, trans, 1e-3, r)

        def sample_one():
            r = np.random.default_rng(seed)
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
