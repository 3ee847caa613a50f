"""IoU metrics and class-frequency weights."""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .grids import MetricsReport, VoxelGrid


def iou_counts(pred: VoxelGrid, gt: VoxelGrid, num_classes: int):
    """Per-class (intersection, union) counts, all K classes including free."""
    if pred.dims != gt.dims:
        raise ValueError(f"dim mismatch: {pred.dims} vs {gt.dims}")
    inter = np.zeros(num_classes, dtype=np.int64)
    union = np.zeros(num_classes, dtype=np.int64)
    p = pred.labels.reshape(-1)
    g = gt.labels.reshape(-1)
    for k in range(num_classes):
        pk, gk = p == k, g == k
        inter[k] = np.count_nonzero(pk & gk)
        union[k] = np.count_nonzero(pk | gk)
    return inter, union


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
    inter = np.zeros(num_classes, dtype=np.int64)
    union = np.zeros(num_classes, dtype=np.int64)
    occ_i = occ_u = 0
    for pred, gt in pairs:
        i, u = iou_counts(pred, gt, num_classes)
        inter += i
        union += u
        po, go = pred.occupancy(), gt.occupancy()
        occ_i += np.count_nonzero(po & go)
        occ_u += np.count_nonzero(po | go)
    return report_from_counts(inter, union, occ_i / occ_u if occ_u else 1.0)


def inverse_frequency_weights(dataset: Sequence[VoxelGrid], num_classes: int) -> np.ndarray:
    """Class weights w_k = 1 / log(1.02 + f_k), normalized to mean 1.

    f_k is the empirical label frequency over the whole dataset.
    """
    if len(dataset) == 0:
        raise ValueError("empty dataset")
    hist = np.zeros(num_classes, dtype=np.int64)
    for g in dataset:
        hist += np.bincount(g.labels.reshape(-1), minlength=num_classes)[:num_classes]
    freq = hist / hist.sum()
    w = 1.0 / np.log(1.02 + freq)
    return w / w.mean()
