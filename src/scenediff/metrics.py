"""IoU metrics and class-frequency weights."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .grids import MetricsReport, VoxelGrid


def _confusion(pred: VoxelGrid, gt: VoxelGrid, num_classes: int) -> np.ndarray:
    """(K, K) voxel counts: entry [g, p] counts ground truth g predicted as p."""
    if pred.dims != gt.dims:
        raise ValueError(f"dim mismatch: {pred.dims} vs {gt.dims}")
    k = num_classes
    cells = gt.checked_labels(k) * k + pred.checked_labels(k)
    return np.bincount(cells.ravel(), minlength=k * k).reshape(k, k)


def _iou_from(cm: np.ndarray):
    """Per-class intersections (the diagonal) and unions (row + column - diagonal)."""
    inter = cm.diagonal().copy()
    return inter, cm.sum(axis=0) + cm.sum(axis=1) - inter


def iou_counts(pred: VoxelGrid, gt: VoxelGrid, num_classes: int):
    """Per-class (intersection, union) counts, all K classes including free."""
    return _iou_from(_confusion(pred, gt, num_classes))


def miou_from_per_class(per_class_iou: Sequence[float]) -> float:
    """Averaging rule: mean over defined (non-NaN) per-class IoUs, free included."""
    vals = [v for v in per_class_iou if not math.isnan(v)]
    if not vals:
        return float("nan")
    return sum(vals) / len(vals)


def report_from_counts(inter: np.ndarray, union: np.ndarray, comp: float) -> MetricsReport:
    per_class = np.where(union > 0, inter / np.maximum(union, 1), np.nan)
    return MetricsReport(per_class, miou_from_per_class(per_class), comp)


def report_from_pairs(pairs, num_classes: int) -> MetricsReport:
    """Per-class IoU (NaN for a class absent from every pair) and completion
    (occupancy) IoU over (pred, gt) pairs, counts summed across all pairs before
    dividing; an empty occupancy union counts as 1.0. Reads each pair once."""
    cm = sum((_confusion(pred, gt, num_classes) for pred, gt in pairs),
             np.zeros((num_classes, num_classes), dtype=np.intp))
    occ_union = cm.sum() - cm[0, 0]  # free is label 0
    return report_from_counts(*_iou_from(cm),
                              cm[1:, 1:].sum() / occ_union if occ_union else 1.0)


def inverse_frequency_weights(dataset: Sequence[VoxelGrid], num_classes: int) -> np.ndarray:
    """Class weights w_k = 1 / log(1.02 + f_k), normalized to mean 1.

    f_k is the empirical label frequency over the whole dataset.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    hist = np.zeros(num_classes, dtype=np.int64)
    for g in dataset:
        hist += np.bincount(g.checked_labels(num_classes).ravel(), minlength=num_classes)
    freq = hist / hist.sum()
    w = 1.0 / np.log(1.02 + freq)
    return w / w.mean()
