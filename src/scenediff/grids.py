"""Voxel-scene data model: class tables, label grids, per-voxel distributions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import Rate, convert


@dataclass(frozen=True)
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


def label_dtype(num_classes: int) -> np.dtype:
    """The dtype of a grid of labels in [0, num_classes): the smallest unsigned
    integer type that holds num_classes - 1. That is uint8 up to 256 classes
    and uint16 up to 65536, e.g. for the 1100-code index grids."""
    if num_classes < 1:
        raise ValueError(f"need at least one class; got {num_classes}")
    return np.min_scalar_type(num_classes - 1)


@dataclass
class VoxelGrid:
    """Dense 3D array of class indices, shape (X, Y, Z).

    Any integer dtype is accepted. Every grid the library makes stores its
    labels in `label_dtype(K)`: one byte per voxel for a scene, two for an
    index grid. Code that computes with labels reads them through
    `checked_labels`, which widens them to intp, so no label arithmetic wraps.
    """

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

    def checked_labels(self, num_classes: int) -> np.ndarray:
        """The labels as intp, after checking that each lies in [0, num_classes)."""
        labels = self.labels.astype(np.intp, copy=False)
        if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
            raise ValueError(f"label out of range [0, {num_classes})")
        return labels

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
    labels = grid.checked_labels(num_classes)
    probs = np.zeros(labels.shape + (num_classes,), dtype=np.float64)
    np.put_along_axis(probs, labels[..., None], 1.0, axis=-1)
    return CategoricalField(probs)


def argmax_decode(field: CategoricalField) -> VoxelGrid:
    """Per-voxel argmax; ties break toward the lowest class index."""
    return VoxelGrid(np.argmax(field.probs, axis=-1).astype(label_dtype(field.num_classes)))


def sparsify(grid: VoxelGrid, rate: float, seed: int) -> VoxelGrid:
    """Random partial observation of a scene's occupancy.

    Returns a binary grid (labels in {0, 1}) keeping ceil(rate * |occupied|)
    uniformly chosen occupied voxels, for a `Rate` in (0, 1]. Deterministic given the seed.
    """
    rate = convert(Rate, rate, "'rate'")
    occ = np.flatnonzero(grid.occupancy())
    keep = int(np.ceil(rate * occ.size))
    rng = np.random.default_rng(seed)
    chosen = rng.choice(occ, size=keep, replace=False) if occ.size else occ
    out = np.zeros(grid.num_voxels, dtype=label_dtype(2))
    out[chosen] = 1
    return VoxelGrid(out.reshape(grid.dims))
