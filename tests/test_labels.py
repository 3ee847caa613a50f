"""The label dtype contract: every grid the library makes stores its labels in
`label_dtype(K)`, and every consumer gives the same results for those labels as
for int64 copies of them."""

import numpy as np
import pytest

from scenediff import denoiser as dn
from scenediff import latent as lat
from scenediff import metrics, ssc
from scenediff import vqvae as vq
from scenediff.diffusion import reverse_step, sample_field, sample_loop
from scenediff.grids import (CategoricalField, VoxelGrid, argmax_decode, label_dtype, one_hot,
                             sparsify)
from scenediff.schedule import UniformTransition, make_schedule
from scenediff.sceneio import load_scene, save_scene
from scenediff.toydata import (ToySceneParams, generate_toy_dataset, generate_toy_scene,
                               toy_class_table)

FULL_SCENE = ToySceneParams(dims=(128, 128, 8), num_classes=11)
NUM_CODES = 1100


def test_label_dtype_is_the_smallest_unsigned_type_holding_k_minus_1():
    expected = {1: np.uint8, 2: np.uint8, 11: np.uint8, 256: np.uint8, 257: np.uint16,
                NUM_CODES: np.uint16, 65536: np.uint16, 65537: np.uint32}
    assert {k: label_dtype(k) for k in expected} == {k: np.dtype(d) for k, d in expected.items()}
    with pytest.raises(ValueError):
        label_dtype(0)


def owns_its_memory(labels: np.ndarray) -> bool:
    """True if `labels` is, or is a view of, an array that owns its buffer (and
    so keeps no file's bytes alive)."""
    owner = labels if labels.base is None else labels.base
    return isinstance(owner, np.ndarray) and owner.flags.owndata


@pytest.mark.parametrize("rle", [False, True], ids=["raw", "rle"])
def test_toy_and_loaded_scenes_hold_one_writable_byte_per_voxel(tmp_path, rle):
    scene = generate_toy_scene(FULL_SCENE, 3)
    assert scene.labels.dtype == np.uint8 and scene.labels.flags.writeable
    save_scene(scene, toy_class_table(11), tmp_path / "s.vxsc", rle=rle)
    loaded, _ = load_scene(tmp_path / "s.vxsc")
    assert loaded == scene
    labels = loaded.labels
    assert labels.dtype == np.uint8 and labels.nbytes == 131_072
    assert labels.flags.writeable and owns_its_memory(labels)
    labels[0, 0, 0] = 0


def test_index_grids_at_the_full_codebook_are_uint16():
    trans = UniformTransition(NUM_CODES, make_schedule("cosine", 2))
    uniform = lambda x_t, t: np.zeros(x_t.dims + (NUM_CODES,))
    sampled = sample_loop(uniform, (2, 2, 1), trans, np.random.default_rng(0))
    assert sampled.labels.dtype == np.uint16

    config = vq.VQVAEConfig(num_classes=4, num_codes=NUM_CODES, code_dim=3, hidden=5,
                            strides=((2, 2, 1), (2, 2, 2)))
    vqr = vq.VQVAETrainResult(vq.init_params(config, 0), config, np.ones(4))
    data = generate_toy_dataset(ToySceneParams(dims=(8, 8, 4), num_classes=4), 2, 1)
    for grid in lat.encode_dataset(vqr, data):
        assert grid.labels.dtype == np.uint16
    assert vq.to_indices(vqr.params, config, data[0]).labels.dtype == np.uint16

    field = CategoricalField(np.random.default_rng(1).random((2, 2, 1, NUM_CODES)))
    assert argmax_decode(field).labels.dtype == np.uint16
    assert sample_field(field, np.random.default_rng(2)).labels.dtype == np.uint16


def test_scene_producers_make_uint8_labels():
    rng = np.random.default_rng(3)
    scene = VoxelGrid(rng.integers(0, 5, size=(4, 4, 2)))
    assert argmax_decode(one_hot(scene, 5)).labels.dtype == np.uint8
    assert sparsify(scene, 0.5, seed=0).labels.dtype == np.uint8
    task = ssc.CompletionTask(sparsify(scene, 0.5, seed=0), scene)
    assert ssc.majority_class_predictor([scene])(task).labels.dtype == np.uint8


def test_consumers_widen_labels_that_would_wrap_in_uint8():
    # at K = 20, gt * K + pred reaches 399, which wraps in uint8
    k = 20
    rng = np.random.default_rng(4)
    gt64, pred64 = (rng.integers(0, k, size=(6, 5, 3)) for _ in range(2))
    gt8, pred8 = gt64.astype(np.uint8), pred64.astype(np.uint8)
    assert not np.array_equal(gt8 * k + pred8, gt64 * k + pred64)

    wide = (VoxelGrid(pred64), VoxelGrid(gt64))
    narrow = (VoxelGrid(pred8), VoxelGrid(gt8))
    for a, b in zip(metrics.iou_counts(*wide, k), metrics.iou_counts(*narrow, k)):
        assert np.array_equal(a, b)
    assert np.array_equal(one_hot(wide[1], k).probs, one_hot(narrow[1], k).probs)
    config = dn.DenoiserConfig(num_classes=k, in_channels=k + 1, hidden=(3, 4), num_steps=2)
    cond64 = VoxelGrid(rng.integers(0, 2, size=gt64.shape))
    cond8 = VoxelGrid(cond64.labels.astype(np.uint8))
    assert np.array_equal(dn.build_input(wide[1], config, cond64),
                          dn.build_input(narrow[1], config, cond8))


def test_sample_loop_draws_the_int64_chain():
    config = dn.DenoiserConfig(num_classes=5, in_channels=5, hidden=(3, 4), num_steps=4)
    trans = UniformTransition(5, make_schedule("cosine", 4))
    fn = dn.as_denoiser_fn(dn.init_params(config, 0), config)
    dims = (4, 4, 2)

    rng = np.random.default_rng(5)
    x = VoxelGrid(rng.integers(0, 5, size=dims))
    for t in range(4, 0, -1):
        x = VoxelGrid(reverse_step(x, t, fn, trans, rng).labels.astype(np.int64))

    sampled = sample_loop(fn, dims, trans, np.random.default_rng(5))
    assert sampled.labels.dtype == np.uint8
    assert sampled == x
