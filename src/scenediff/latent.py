"""Diffusion over codebook indices and the two-stage sampling pipeline."""

from __future__ import annotations

import numpy as np

from . import denoiser as dn
from .diffusion import sample_loop
from .grids import VoxelGrid
from .schedule import UniformTransition
from .vqvae import VQVAETrainResult, from_indices, to_indices


def encode_dataset(vq: VQVAETrainResult, dataset) -> list[VoxelGrid]:
    """The index grid of every scene."""
    return [to_indices(vq.params, vq.config, g) for g in dataset]


def train_latent_denoiser(dataset, vq: VQVAETrainResult, trans: UniformTransition,
                          seed: int, epochs: int = 10, batch_size: int = 8,
                          lr: float = 1e-3, w0: float = 1e-3,
                          hidden: tuple[int, int] = (16, 32), log=None):
    """Train an index-space denoiser (N input/output channels) on encoded scenes."""
    n = vq.config.num_codes
    config = dn.DenoiserConfig(num_classes=n, in_channels=n, hidden=hidden,
                               num_steps=trans.schedule.num_steps)
    dn.check_transitions(config, trans)
    pairs = [(g, None) for g in encode_dataset(vq, dataset)]
    params, history = dn.fit_diffusion(pairs, config, trans, seed, epochs, batch_size, lr, w0, log)
    return params, config, history


def sample_latent(latent_params: dict, latent_config: dn.DenoiserConfig,
                  vq: VQVAETrainResult, dims_latent: tuple[int, int, int],
                  trans: UniformTransition, rng: np.random.Generator) -> VoxelGrid:
    """Sample an index grid and decode it to voxels."""
    n = vq.config.num_codes
    if latent_config.num_classes != n or trans.num_classes != n:
        raise ValueError(f"latent model has {latent_config.num_classes} classes and its "
                         f"transitions {trans.num_classes}, but the VQ-VAE codebook has {n} codes")
    dn.check_transitions(latent_config, trans)
    idx = sample_loop(dn.as_denoiser_fn(latent_params, latent_config), dims_latent, trans, rng)
    return from_indices(vq.params, vq.config, idx)
