import numpy as np
import pytest

from scenediff.grids import VoxelGrid
from scenediff.metrics import (inverse_frequency_weights, iou_counts, miou_from_per_class,
                               report_from_pairs)

# Published per-class IoU rows (free class first) used to pin the averaging rule.
DIFFUSION_ROW = [96.00, 31.75, 3.42, 25.43, 46.22, 43.32, 84.57, 13.01, 67.50, 37.45, 55.46]
BASELINE_ROW = [96.40, 27.72, 3.15, 8.77, 22.15, 37.14, 89.02, 18.22, 59.25, 29.74, 47.72]


def completion_iou(pred, gt, num_classes):
    return report_from_pairs([(pred, gt)], num_classes).completion_iou


def test_completion_iou_identity_and_empty():
    g = VoxelGrid(np.array([[[0, 1], [2, 0]]]))
    assert completion_iou(g, g, 3) == 1.0
    empty = VoxelGrid(np.zeros((2, 2, 2), dtype=int))
    assert completion_iou(empty, empty, 1) == 1.0


def test_completion_iou_hand_enumeration():
    # pred occupies {v1, v2}, gt occupies {v2, v3}: intersection 1, union 3
    pred = VoxelGrid(np.array([1, 1, 0, 0]).reshape(4, 1, 1))
    gt = VoxelGrid(np.array([0, 2, 3, 0]).reshape(4, 1, 1))
    assert completion_iou(pred, gt, 4) == pytest.approx(1 / 3)


def test_completion_iou_dim_mismatch():
    with pytest.raises(ValueError):
        completion_iou(VoxelGrid(np.zeros((2, 2, 2), dtype=int)),
                       VoxelGrid(np.zeros((2, 2, 3), dtype=int)), 1)


def test_miou_averaging_matches_published_rows():
    assert miou_from_per_class(DIFFUSION_ROW) == pytest.approx(45.83, abs=0.01)
    assert miou_from_per_class(BASELINE_ROW) == pytest.approx(39.94, abs=0.01)


def test_mean_iou_perfect_prediction():
    rng = np.random.default_rng(0)
    g = VoxelGrid(rng.integers(0, 5, size=(6, 6, 3)))
    rep = report_from_pairs([(g, g)], 5)
    assert np.all(rep.per_class_iou[~np.isnan(rep.per_class_iou)] == 1.0)
    assert rep.miou == 1.0
    assert rep.completion_iou == 1.0


def test_mean_iou_excludes_absent_classes():
    pred = VoxelGrid(np.array([[[1, 1]]]))
    gt = VoxelGrid(np.array([[[1, 0]]]))
    rep = report_from_pairs([(pred, gt)], 5)
    assert np.isnan(rep.per_class_iou[2:]).all()  # classes 2..4 absent from both
    assert rep.miou == pytest.approx((0.0 + 0.5) / 2)  # free IoU 0, class-1 IoU 1/2


def test_mean_iou_permutation_symmetry():
    rng = np.random.default_rng(3)
    pred = VoxelGrid(rng.integers(0, 5, size=(5, 5, 3)))
    gt = VoxelGrid(rng.integers(0, 5, size=(5, 5, 3)))
    base = report_from_pairs([(pred, gt)], 5)
    # permute the non-free classes 1..4
    perm = np.array([0, 3, 1, 4, 2])
    rep = report_from_pairs([(VoxelGrid(perm[pred.labels]), VoxelGrid(perm[gt.labels]))], 5)
    inv = np.argsort(perm)
    np.testing.assert_allclose(rep.per_class_iou[perm], base.per_class_iou)
    assert rep.miou == pytest.approx(base.miou)


def test_inverse_frequency_weights():
    with pytest.raises(ValueError):
        inverse_frequency_weights([], 3)
    # equal frequencies -> all weights 1
    g = VoxelGrid(np.arange(4).reshape(4, 1, 1))
    w = inverse_frequency_weights([g], 4)
    np.testing.assert_allclose(w, 1.0)
    # rarer class gets the bigger weight
    g2 = VoxelGrid(np.array([0] * 9 + [1]).reshape(10, 1, 1))
    w2 = inverse_frequency_weights([g2], 2)
    assert w2[1] > w2[0]
    assert w2.mean() == pytest.approx(1.0)


def test_inverse_frequency_weights_histogram_oracle():
    rng = np.random.default_rng(7)
    scenes = [VoxelGrid(rng.integers(0, 4, size=(5, 4, 3))) for _ in range(6)]
    w = inverse_frequency_weights(scenes, 4)
    hist = np.zeros(4)
    for g in scenes:
        for v in g.labels.ravel():
            hist[v] += 1
    expected = 1.0 / np.log(1.02 + hist / hist.sum())
    expected /= expected.mean()
    np.testing.assert_allclose(w, expected, atol=1e-12)


def per_class_oracle(pairs, num_classes):
    """Two boolean passes per class and one occupancy pass per pair."""
    inter = np.zeros(num_classes, dtype=np.int64)
    union = np.zeros(num_classes, dtype=np.int64)
    occ_i = occ_u = 0
    for pred, gt in pairs:
        p, g = pred.labels.ravel(), gt.labels.ravel()
        for k in range(num_classes):
            inter[k] += np.count_nonzero((p == k) & (g == k))
            union[k] += np.count_nonzero((p == k) | (g == k))
        occ_i += np.count_nonzero((p != 0) & (g != 0))
        occ_u += np.count_nonzero((p != 0) | (g != 0))
    return inter, union, occ_i / occ_u if occ_u else 1.0


def test_confusion_counts_match_per_class_passes():
    rng = np.random.default_rng(11)
    for k, dims in ((2, (3, 3, 1)), (5, (6, 6, 3)), (11, (16, 16, 4))):
        pairs = [(VoxelGrid(rng.integers(0, k, size=dims)),
                  VoxelGrid(rng.integers(0, max(1, k - 2), size=dims))) for _ in range(3)]
        inter, union, comp = per_class_oracle(pairs, k)
        got_i, got_u = iou_counts(*pairs[0], k)
        ref_i, ref_u, _ = per_class_oracle(pairs[:1], k)
        assert np.array_equal(got_i, ref_i) and np.array_equal(got_u, ref_u)
        rep = report_from_pairs(iter(pairs), k)
        ref = np.where(union > 0, inter / np.maximum(union, 1), np.nan)
        assert np.array_equal(rep.per_class_iou, ref, equal_nan=True)
        assert rep.miou == miou_from_per_class(ref)
        assert rep.completion_iou == comp


@pytest.mark.parametrize("bad", [-1, 4])
def test_labels_outside_the_classes_are_rejected(bad):
    ok = VoxelGrid(np.zeros((2, 1, 1), dtype=int))
    off = VoxelGrid(np.array([0, bad]).reshape(2, 1, 1))
    for pred, gt in ((off, ok), (ok, off)):
        with pytest.raises(ValueError, match="out of range"):
            iou_counts(pred, gt, 4)
        with pytest.raises(ValueError, match="out of range"):
            report_from_pairs([(pred, gt)], 4)
    with pytest.raises(ValueError, match="out of range"):
        inverse_frequency_weights([ok, off], 4)
