"""Voxel-scene data model: class tables, label grids, per-voxel distributions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class ClassTable:
    """Semantic class metadata. Index 0 is always the free (empty) label."""

    names: tuple[str, ...]
    colors: tuple[tuple[int, int, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "names", tuple(self.names))
        object.__setattr__(self, "colors", tuple(tuple(c) for c in self.colors))
        if len(self.colors) != len(self.names):
            raise ValueError("names and colors must both have K entries")

    @property
    def num_classes(self) -> int:
        return len(self.names)


@dataclass
class VoxelGrid:
    """Dense 3D array of class indices, shape (X, Y, Z)."""

    labels: np.ndarray

    def __post_init__(self):
        self.labels = np.asarray(self.labels)
        if self.labels.ndim != 3:
            raise ValueError("labels must be a 3D array")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.labels.shape

    @property
    def num_voxels(self) -> int:
        return int(self.labels.size)

    def occupancy(self) -> np.ndarray:
        """Binary occupancy mask (label != free)."""
        return self.labels != 0

    def __eq__(self, other) -> bool:
        return isinstance(other, VoxelGrid) and np.array_equal(self.labels, other.labels)


@dataclass(eq=False)
class CategoricalField:
    """Per-voxel probability distributions over K classes, shape (X, Y, Z, K)."""

    probs: np.ndarray

    def __post_init__(self):
        self.probs = np.asarray(self.probs, dtype=np.float64)
        if self.probs.ndim != 4:
            raise ValueError("probs must have shape (X, Y, Z, K)")

    @property
    def dims(self) -> tuple[int, int, int]:
        return self.probs.shape[:3]

    @property
    def num_classes(self) -> int:
        return self.probs.shape[3]

    def flat(self) -> np.ndarray:
        """View as (num_voxels, K)."""
        return self.probs.reshape(-1, self.num_classes)


@dataclass(eq=False)
class MetricsReport:
    """Per-class IoU (NaN marks classes absent from both grids), their mean, and occupancy IoU."""

    per_class_iou: np.ndarray
    miou: float
    completion_iou: float


def one_hot(grid: VoxelGrid, num_classes: int) -> CategoricalField:
    """One-hot encode a label grid into a categorical field."""
    labels = grid.labels
    if labels.min() < 0 or labels.max() >= num_classes:
        raise ValueError(f"label out of range [0, {num_classes})")
    probs = np.zeros(labels.shape + (num_classes,), dtype=np.float64)
    np.put_along_axis(probs, labels[..., None].astype(np.int64), 1.0, axis=-1)
    return CategoricalField(probs)


def argmax_decode(field: CategoricalField) -> VoxelGrid:
    """Per-voxel argmax; ties break toward the lowest class index."""
    return VoxelGrid(np.argmax(field.probs, axis=-1).astype(np.int64))


def sparsify(grid: VoxelGrid, rate: float, seed: int) -> VoxelGrid:
    """Random partial observation of a scene's occupancy.

    Returns a binary grid (labels in {0, 1}) keeping ceil(rate * |occupied|)
    uniformly chosen occupied voxels. Deterministic given the seed.
    """
    if not (0.0 < rate <= 1.0):
        raise ValueError("rate must be in (0, 1]")
    occ = np.flatnonzero(grid.labels.reshape(-1) != 0)
    keep = int(np.ceil(rate * occ.size))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(occ, size=keep, replace=False) if occ.size else occ
    out = np.zeros(grid.num_voxels, dtype=np.int64)
    out[chosen] = 1
    return VoxelGrid(out.reshape(grid.dims))
