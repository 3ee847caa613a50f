import numpy as np
import pytest

from scenediff.toydata import LABEL_GROUND, ToySceneParams, generate_toy_scene, toy_class_table


def test_determinism():
    p = ToySceneParams()
    assert generate_toy_scene(p, 5) == generate_toy_scene(p, 5)
    assert generate_toy_scene(p, 5) != generate_toy_scene(p, 6)


def test_ground_layer_fully_occupied():
    for seed in range(10):
        g = generate_toy_scene(ToySceneParams(), seed)
        assert np.all(g.labels[:, :, 0] != 0)


def test_all_configured_classes_appear_over_seeds():
    p = ToySceneParams(num_classes=6)
    hist = np.zeros(6, dtype=np.int64)
    for seed in range(100):
        g = generate_toy_scene(p, seed)
        hist += np.bincount(g.labels.ravel(), minlength=6)
        assert g.labels.max() < 6
    assert np.all(hist > 0)


def test_rejects_small_dims_and_few_classes():
    with pytest.raises(ValueError, match="'dims'"):
        generate_toy_scene(ToySceneParams(dims=(4, 8, 4)), 0)
    with pytest.raises(ValueError, match="'dims'"):
        generate_toy_scene(ToySceneParams(dims=(8, 8, 3)), 0)
    with pytest.raises(ValueError, match="'num_classes'"):
        generate_toy_scene(ToySceneParams(num_classes=3), 0)


def test_tables():
    t = toy_class_table(5)
    assert t.names[0] == "Free"
    assert t.num_classes == 5
    full = toy_class_table(11)
    assert full.num_classes == 11
    assert full.colors[full.names.index("Vehicles")] == (100, 150, 245)
