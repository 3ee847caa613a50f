import numpy as np
import pytest

from scenediff.grids import CategoricalField, ClassTable, VoxelGrid, argmax_decode, one_hot, sparsify


def random_grid(rng, dims=(4, 4, 3), k=4):
    return VoxelGrid(rng.integers(0, k, size=dims))


def test_one_hot_single_voxel():
    g = VoxelGrid(np.array([[[2]]]))
    f = one_hot(g, 4)
    assert np.array_equal(f.probs.ravel(), [0, 0, 1, 0])


def test_one_hot_rejects_out_of_range_label():
    g = VoxelGrid(np.array([[[5]]]))
    with pytest.raises(ValueError):
        one_hot(g, 4)


def test_one_hot_round_trip_and_normalization():
    rng = np.random.default_rng(0)
    for _ in range(20):
        g = random_grid(rng)
        f = one_hot(g, 4)
        assert np.all(f.probs >= 0)
        np.testing.assert_allclose(f.probs.sum(axis=-1), 1.0)
        assert argmax_decode(f) == g


def test_argmax_unique_max_and_tie_break():
    f = CategoricalField(np.array([0.2, 0.5, 0.3]).reshape(1, 1, 1, 3))
    assert argmax_decode(f).labels.ravel()[0] == 1
    f = CategoricalField(np.array([0.5, 0.5, 0.0]).reshape(1, 1, 1, 3))
    assert argmax_decode(f).labels.ravel()[0] == 0


def test_class_table_invariants():
    with pytest.raises(ValueError):
        ClassTable(("a", "b"), ((0, 0, 0),))
    t = ClassTable(["free", "solid"], [[0, 0, 0], (1, 2, 3)])
    assert t.num_classes == 2
    assert (t.names, t.colors) == (("free", "solid"), ((0, 0, 0), (1, 2, 3)))


def test_sparsify_full_retention_equals_binarized_input():
    rng = np.random.default_rng(1)
    g = random_grid(rng)
    out = sparsify(g, 1.0, seed=3)
    assert np.array_equal(out.occupancy(), g.occupancy())
    assert set(np.unique(out.labels)) <= {0, 1}


def test_sparsify_subset_and_count():
    rng = np.random.default_rng(2)
    for trial in range(30):
        g = random_grid(rng, dims=(6, 6, 4), k=5)
        rate = float(rng.uniform(0.05, 1.0))
        out = sparsify(g, rate, seed=trial)
        assert not np.any(out.occupancy() & ~g.occupancy())
        expected = int(np.ceil(rate * np.count_nonzero(g.occupancy())))
        assert np.count_nonzero(out.occupancy()) == expected


def test_sparsify_deterministic_and_rate_validation():
    g = VoxelGrid(np.ones((4, 4, 2), dtype=int))
    assert sparsify(g, 0.3, seed=9) == sparsify(g, 0.3, seed=9)
    for bad in (0.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            sparsify(g, bad, seed=0)
