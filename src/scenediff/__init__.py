"""Discrete and latent diffusion models for scene-scale 3D categorical data."""

from .grids import CategoricalField, ClassTable, MetricsReport, VoxelGrid, argmax_decode, one_hot, sparsify
from .metrics import inverse_frequency_weights, miou_from_per_class, report_from_pairs
from .schedule import NoiseSchedule, UniformTransition, make_schedule
from .diffusion import (diffusion_loss, kl_categorical, posterior, q_marginal,
                        q_onestep, reverse_step, sample_field, sample_loop)
from .sceneio import export_ply, load_scene, save_scene

__version__ = "0.1.0"
