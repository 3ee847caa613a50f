import numpy as np
import pytest

from scenediff.grids import VoxelGrid
from scenediff.metrics import inverse_frequency_weights, miou_from_per_class, report_from_pairs

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
