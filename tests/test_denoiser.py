import numpy as np
import pytest

from scenediff import denoiser as dn
from scenediff import nn
from scenediff.errors import CheckpointError, TrainingDiverged
from scenediff.grids import VoxelGrid
from scenediff.schedule import UniformTransition, make_schedule

from oracles import denoiser_fd, fd_worst

SMALL = dn.DenoiserConfig(num_classes=3, in_channels=3, hidden=(5, 7), num_steps=10)


def small_params(seed=1):
    return dn.init_params(SMALL, seed)


def argmax_input(draw):
    """SMALL's `build_input` of the labels a draw (X, Y, Z, K) makes hot: each voxel's argmax."""
    return dn.build_input(VoxelGrid(draw.argmax(-1)), SMALL, None)


def test_forward_shapes_and_purity():
    params = small_params()
    rng = np.random.default_rng(0)
    x = argmax_input(rng.random((4, 4, 2, 3)))
    a = dn.forward(params, SMALL, x, 3)
    b = dn.forward(params, SMALL, x, 3)
    assert a.shape == (4, 4, 2, 3)
    assert np.array_equal(a, b)


def test_time_embedding_is_effective():
    params = small_params()
    x = argmax_input(np.random.default_rng(1).random((4, 4, 2, 3)))
    a = dn.forward(params, SMALL, x, 1)
    b = dn.forward(params, SMALL, x, SMALL.num_steps)
    assert not np.allclose(a, b)


def test_forward_shape_mismatch():
    params = small_params()
    for x in (np.zeros((4, 4, 2, 5), dtype=int), np.zeros((4, 4, 2), dtype=int)):
        with pytest.raises(ValueError):
            dn.forward(params, SMALL, x, 1)


def test_init_params_determinism_and_scale():
    assert all(np.array_equal(a, b) for a, b in
               zip(small_params(3).values(), small_params(3).values()))
    p1, p2 = small_params(3), small_params(4)
    assert any(not np.array_equal(p1[k], p2[k]) for k in p1)
    # empirical variance of fan-in-scaled U(-b, b) is b^2/3 = 1/(3 fan_in)
    fan_in = dn.KERNEL ** 3 * SMALL.hidden[0]
    samples = [dn.init_params(SMALL, s)["enc2_w"].var() for s in range(30)]
    expected = 1.0 / (3 * fan_in)
    assert abs(np.mean(samples) - expected) / expected < 0.2


def test_zero_upstream_gives_zero_grads():
    params = small_params()
    x = argmax_input(np.random.default_rng(2).random((3, 3, 2, 3)))
    _, cache = dn.forward(params, SMALL, x, 2, with_cache=True)
    grads = dn.backward(params, SMALL, cache, np.zeros((3, 3, 2, 3)))
    assert all(np.all(g == 0) for g in grads.values())


def test_bias_gradient_is_summed_upstream():
    params = small_params()
    x = argmax_input(np.random.default_rng(3).random((3, 3, 2, 3)))
    up = np.random.default_rng(4).normal(size=(3, 3, 2, 3))
    _, cache = dn.forward(params, SMALL, x, 2, with_cache=True)
    grads = dn.backward(params, SMALL, cache, up)
    np.testing.assert_allclose(grads["out_b"], up.reshape(-1, 3).sum(axis=0), atol=1e-12)


def test_gradients_match_finite_differences():
    params = small_params()
    rng = np.random.default_rng(5)
    x = argmax_input(rng.random((4, 4, 2, 3)))
    up = rng.normal(size=(4, 4, 2, 3))
    # spot-check ~1/8 of the parameters here; the acceptance suite covers 100%
    assert denoiser_fd(params, SMALL, x, 4, up, 1e-4, subset=8) < 1e-4


def test_finite_differences_judge_tiny_gradients_by_absolute_error():
    # f = 1 + g w with g = 7.6e-9: a central difference at h = 1e-5 resolves g
    # only to ~6e-12 (rounding f), 8e-4 of g, so the floor judges it absolutely;
    # a zero gradient still reads 3.4e-4
    slope, w = 7.6e-9, {"w": np.array([0.3])}

    def evaluate():
        return 1.0 + slope * w["w"][0], []

    assert fd_worst(w, {"w": np.array([slope])}, evaluate, 1e-5) < 1e-4
    assert fd_worst(w, {"w": np.array([0.0])}, evaluate, 1e-5) > 1e-4


# the first layer gathers weight rows when in_channels > hidden[0], else it
# runs the dense conv on the expanded one-hot input
LABEL_CONFIGS = {
    "unconditioned-gather": dn.DenoiserConfig(num_classes=8, in_channels=8, hidden=(5, 7),
                                              num_steps=10),
    "conditioned-gather": dn.DenoiserConfig(num_classes=6, in_channels=7, hidden=(5, 7),
                                            num_steps=10),
    "conditioned-dense": dn.DenoiserConfig(num_classes=3, in_channels=4, hidden=(5, 7),
                                           num_steps=10),
}


def label_input(config, seed, dims=(4, 3, 2)):
    """build_input's hot channel indices for a random x_t and, when conditioned,
    a random condition."""
    rng = np.random.default_rng(seed)
    x_t = VoxelGrid(rng.integers(0, config.num_classes, size=dims))
    condition = VoxelGrid(rng.integers(0, 2, size=dims)) if config.conditioned else None
    return dn.build_input(x_t, config, condition)


@pytest.mark.parametrize("name", LABEL_CONFIGS)
def test_forward_takes_only_build_inputs_hot_channel_indices(name):
    config = LABEL_CONFIGS[name]
    params = dn.init_params(config, 2)
    idx = label_input(config, 3)
    assert dn.forward(params, config, idx, 5).shape == idx.shape[:3] + (config.num_classes,)
    below, above = idx.copy(), idx.copy()
    below[0, 0, 0, 0], above[0, 0, 0, -1] = -1, config.in_channels + 1
    three = np.repeat(idx[..., :1], 3, axis=-1)
    for bad in (idx.astype(np.float64), below, above, three):
        with pytest.raises(ValueError, match="hot channel indices"):
            dn.forward(params, config, bad, 5)


@pytest.mark.parametrize("name", ["unconditioned-gather", "conditioned-gather"])
def test_label_path_gradients_match_finite_differences(name):
    config = LABEL_CONFIGS[name]
    params = dn.init_params(config, 1)
    idx = label_input(config, 7)
    up = np.random.default_rng(6).normal(size=idx.shape[:3] + (config.num_classes,))
    assert denoiser_fd(params, config, idx, 4, up, 1e-4, subset=8) < 1e-4


def test_finite_differences_refuse_a_step_across_a_relu_kink():
    # at this input enc1_b[1] +- h moves a pre-activation across zero, where a
    # central difference does not measure the gradient
    config = LABEL_CONFIGS["conditioned-gather"]
    params = dn.init_params(config, 1)
    idx = label_input(config, 249)
    up = np.random.default_rng(6).normal(size=idx.shape[:3] + (config.num_classes,))
    with pytest.raises(AssertionError, match=r"enc1_b\[1\] \+- h moves a ReLU"):
        denoiser_fd(params, config, idx, 4, up, 1e-4, subset=8)


def test_finite_differences_restore_the_entry_they_moved_when_a_kink_fires():
    # w[0] = 1e-7 sits within h of the ReLU's kink: the -h step crosses it
    w = {"w": np.array([1e-7, 2.0])}
    before = w["w"].copy()

    def evaluate():
        return float(np.maximum(w["w"], 0.0).sum()), [w["w"]]

    with pytest.raises(AssertionError, match=r"w\[0\] \+- h moves a ReLU"):
        fd_worst(w, {"w": np.ones(2)}, evaluate, 1e-6)
    np.testing.assert_array_equal(w["w"], before)


def test_build_input_rejects_labels_out_of_range():
    config = LABEL_CONFIGS["unconditioned-gather"]
    for bad in (-1, config.num_classes):
        with pytest.raises(ValueError, match="out of range"):
            dn.build_input(VoxelGrid(np.full((2, 2, 1), bad)), config, None)


def make_trainer(seed=0):
    trans = UniformTransition(3, make_schedule("cosine", 10))
    rng = np.random.default_rng(seed)
    scene = VoxelGrid(rng.integers(0, 3, size=(6, 6, 3)))
    return trans, scene


def test_train_step_zero_lr_keeps_params():
    trans, scene = make_trainer()
    params = small_params()
    out, _, _ = dn.train_step(params, nn.AdamState(), [(scene, None)], SMALL, trans,
                              1e-3, np.random.default_rng(0), lr=0.0)
    assert all(np.array_equal(out[k], params[k]) for k in params)


def test_train_step_determinism():
    trans, scene = make_trainer()

    def run():
        params = small_params()
        opt = nn.AdamState()
        rng = np.random.default_rng(42)
        for _ in range(5):
            params, opt, _ = dn.train_step(params, opt, [(scene, None)], SMALL,
                                           trans, 1e-3, rng)
        return params

    a, b = run(), run()
    assert all(np.array_equal(a[k], b[k]) for k in a)


def test_train_step_loss_decreases_on_one_scene():
    trans, scene = make_trainer()
    params = small_params()
    opt = nn.AdamState()
    rng = np.random.default_rng(0)
    losses = []
    for _ in range(200):
        params, opt, rec = dn.train_step(params, opt, [(scene, None)], SMALL,
                                         trans, 1e-3, rng, lr=3e-3)
        losses.append(rec["loss"])
    assert np.mean(losses[-20:]) < 0.5 * np.mean(losses[:20])


def test_train_step_rejects_empty_batch():
    trans, _ = make_trainer()
    with pytest.raises(ValueError):
        dn.train_step(small_params(), nn.AdamState(), [], SMALL, trans, 1e-3,
                      np.random.default_rng(0))


@pytest.mark.parametrize("k, steps", [(4, 10), (3, 5)], ids=["K", "T"])
def test_trainers_reject_transitions_that_differ_from_the_config(monkeypatch, k, steps):
    # SMALL has K = 3, T = 10: a different K or T raises before any forward pass
    trans = UniformTransition(k, make_schedule("cosine", steps))
    scene = VoxelGrid(np.zeros((2, 2, 1), dtype=int))
    forwards = []
    monkeypatch.setattr(dn, "forward", lambda *args, **kw: forwards.append(args))
    with pytest.raises(ValueError, match=f"K={k}, T={steps}"):
        dn.train_step(small_params(), nn.AdamState(), [(scene, None)], SMALL, trans,
                      1e-3, np.random.default_rng(0))
    with pytest.raises(ValueError, match=f"K={k}, T={steps}"):
        dn.train_diffusion([scene], SMALL, trans, seed=0, epochs=1)
    assert forwards == []


def test_train_step_divergence_detection():
    trans, scene = make_trainer()
    params = small_params()
    params["out_b"] = params["out_b"] + np.nan
    with pytest.raises(TrainingDiverged):
        dn.train_step(params, nn.AdamState(), [(scene, None)], SMALL, trans,
                      1e-3, np.random.default_rng(0))


def test_checkpoint_round_trip(tmp_path):
    params = small_params()
    path = tmp_path / "d.vxdn"
    dn.save_denoiser(path, params, SMALL, extra={"T": 10, "mode": "unconditional"})
    loaded, config, meta = dn.load_denoiser(path, expected_config=SMALL)
    assert config == SMALL
    assert meta["mode"] == "unconditional"
    # init draws in float32, so the f32 container round-trips bit-exactly
    assert all(np.array_equal(loaded[k], params[k]) for k in params)
    x = argmax_input(np.random.default_rng(6).random((4, 4, 2, 3)))
    np.testing.assert_array_equal(dn.forward(loaded, SMALL, x, 2),
                                  dn.forward(params, SMALL, x, 2))


def test_checkpoint_config_mismatch(tmp_path):
    params = small_params()
    path = tmp_path / "d.vxdn"
    dn.save_denoiser(path, params, SMALL)
    other = dn.DenoiserConfig(num_classes=3, in_channels=4, hidden=(5, 7), num_steps=10)
    with pytest.raises(CheckpointError):
        dn.load_denoiser(path, expected_config=other)


def test_condition_channel_is_consumed():
    config = dn.DenoiserConfig(num_classes=3, in_channels=4, hidden=(5, 7), num_steps=10)
    params = dn.init_params(config, 0)
    rng = np.random.default_rng(7)
    x_t = VoxelGrid(rng.integers(0, 3, size=(4, 4, 2)))
    cond_a = VoxelGrid(np.zeros((4, 4, 2), dtype=int))
    cond_b = VoxelGrid(np.ones((4, 4, 2), dtype=int))
    fn_a = dn.as_denoiser_fn(params, config, cond_a)
    fn_b = dn.as_denoiser_fn(params, config, cond_b)
    assert not np.allclose(fn_a(x_t, 2), fn_b(x_t, 2))
    with pytest.raises(ValueError):
        dn.as_denoiser_fn(params, config)(x_t, 2)
