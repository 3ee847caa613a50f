import numpy as np
import pytest

from scenediff import vqvae as vq
from scenediff.errors import CheckpointError
from scenediff.grids import CategoricalField, VoxelGrid, argmax_decode, one_hot
from scenediff.metrics import inverse_frequency_weights
from scenediff.toydata import ToySceneParams, generate_toy_dataset

from oracles import vqvae_fd

SMALL = vq.VQVAEConfig(num_classes=4, num_codes=8, code_dim=3, hidden=6,
                       strides=((2, 2, 1), (2, 2, 2)))


def test_quantize_matches_exhaustive_search():
    rng = np.random.default_rng(0)
    for n in (2, 5, 64):
        codes = rng.normal(size=(n, 4))
        z = rng.normal(size=(3, 2, 2, 4))
        zq, idx = vq.quantize(codes, z)
        flat = z.reshape(-1, 4)
        for i, vec in enumerate(flat):
            dists = ((codes - vec) ** 2).sum(axis=1)
            assert idx.reshape(-1)[i] == int(np.argmin(dists))
        assert np.array_equal(zq.reshape(-1, 4), codes[idx.reshape(-1)])


def test_quantize_exact_match_and_ties():
    codes = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
    z = np.array([1.0, 0.0]).reshape(1, 1, 1, 2)
    zq, idx = vq.quantize(codes, z)
    assert idx.ravel()[0] == 1  # exact hit; duplicate rows tie toward lowest
    np.testing.assert_array_equal(zq.ravel(), [1.0, 0.0])
    # quantization is idempotent: snapped latents re-quantize to themselves
    zq2, idx2 = vq.quantize(codes, zq)
    assert np.array_equal(zq, zq2) and np.array_equal(idx, idx2)
    with pytest.raises(ValueError):
        vq.quantize(codes, np.zeros((1, 1, 1, 3)))


def test_shape_chain_small_and_large():
    params = vq.init_params(SMALL, 0)
    g = VoxelGrid(np.zeros((16, 16, 4), dtype=int))
    z = vq.encode(params, SMALL, g)
    assert z.shape == (4, 4, 2, 3)
    zq, idx = vq.quantize(params["codes"], z)
    logits = vq.decode(params, SMALL, zq)
    assert logits.shape == (16, 16, 4, 4)
    assert idx.shape == (4, 4, 2)

    # full-scale stride plan: 128x128x8 compresses to a 32x32x2 index grid
    big = vq.VQVAEConfig(num_classes=11, num_codes=4, code_dim=2, hidden=3,
                         strides=((2, 2, 2), (2, 2, 2)))
    assert tuple(np.prod(big.strides, axis=0)) == (4, 4, 4)
    params = vq.init_params(big, 0)
    z = vq.encode(params, big, VoxelGrid(np.zeros((128, 128, 8), dtype=int)))
    assert z.shape == (32, 32, 2, 2)
    assert vq.decode(params, big, z).shape == (128, 128, 8, 11)


def test_codec_round_trip_is_the_reconstruction_bit_for_bit():
    params = vq.init_params(SMALL, 5)
    rng = np.random.default_rng(7)
    for dims in ((8, 8, 2), (16, 12, 4)):
        g = VoxelGrid(rng.integers(0, 4, size=dims).astype(np.uint8))
        # the reconstruction spelled out layer by layer: encode, quantize, decode, argmax
        z = vq.encode(params, SMALL, g)
        zq, idx = vq.quantize(params["codes"], z)
        expected = argmax_decode(CategoricalField(vq.decode(params, SMALL, zq)))
        codes = vq.to_indices(params, SMALL, g)
        assert np.array_equal(codes.labels, idx)
        assert vq.from_indices(params, SMALL, codes) == expected
        assert vq.reconstruct(params, SMALL, g) == expected


def test_codec_rejects_out_of_range_labels():
    params = vq.init_params(SMALL, 0)
    with pytest.raises(ValueError, match="out of range"):
        vq.encode(params, SMALL, VoxelGrid(np.full((4, 4, 2), 4)))  # K = 4
    idx = np.zeros((1, 1, 1), dtype=np.uint16)
    assert vq.from_indices(params, SMALL, VoxelGrid(idx + 7)).dims == (4, 4, 2)
    with pytest.raises(ValueError, match="out of range"):
        vq.from_indices(params, SMALL, VoxelGrid(idx + 8))  # N = 8


def test_loss_zero_cases():
    w = np.ones(3)
    g = VoxelGrid(np.arange(8).reshape(2, 2, 2) % 3)
    x = one_hot(g, 3).probs
    perfect = np.log(x + 1e-12) * 30  # sharpen toward one-hot
    z = np.random.default_rng(1).normal(size=(1, 1, 1, 2))
    total, recon, code, commit, _ = vq.vqvae_loss(x, perfect, z, z.copy(), w)
    assert recon < 1e-6
    assert code == 0.0 and commit == 0.0
    # squared-error terms match a direct computation
    zq = z + 1.0
    _, _, code, commit, _ = vq.vqvae_loss(x, perfect, z, zq, w)
    assert code == pytest.approx(2.0)  # sum over d of 1^2, d=2
    assert commit == pytest.approx(0.5)
    with pytest.raises(ValueError):
        vq.vqvae_loss(x, np.zeros((2, 2, 2, 4)), z, zq, w)


def test_straight_through_gradients_match_finite_differences():
    rng = np.random.default_rng(2)
    params = vq.init_params(SMALL, 3)
    g = VoxelGrid(rng.integers(0, 4, size=(8, 8, 2)))
    assert vqvae_fd(params, SMALL, g, np.linspace(0.5, 1.5, 4), 1e-5, subset=7) < 1e-3


def test_reinit_dead_codes():
    rng = np.random.default_rng(3)
    codes = np.zeros((4, 2))
    usage = np.array([10, 0, 3, 0])
    buffer = rng.normal(size=(20, 2))
    new, replaced = vq.reinit_dead_codes(codes, usage, buffer, rng)
    assert replaced == 2
    assert np.array_equal(new[0], codes[0]) and np.array_equal(new[2], codes[2])
    # replacements are actual buffer rows
    for row in (new[1], new[3]):
        assert any(np.array_equal(row, b) for b in buffer)
    same, replaced = vq.reinit_dead_codes(codes, np.ones(4), buffer, rng)
    assert replaced == 0 and np.array_equal(same, codes)
    with pytest.raises(ValueError):
        vq.reinit_dead_codes(codes, usage, np.empty((0, 2)), rng)


def test_training_improves_reconstruction():
    data = generate_toy_dataset(ToySceneParams(dims=(8, 8, 4), num_classes=4,
                                               num_buildings=1, num_vehicles=0,
                                               num_poles=0), 16, 5)
    config = vq.VQVAEConfig(num_classes=4, num_codes=16, code_dim=4, hidden=12,
                            strides=((2, 2, 1), (2, 2, 2)))
    result = vq.train_vqvae(data, config, seed=0, epochs=15, batch_size=4, lr=1e-2)
    assert len(result.history) == 15
    assert result.history[-1].miou > result.history[0].miou
    assert result.history[-1].miou > 0.35
    rec = vq.reconstruct(result.params, config, data[0])
    assert rec.dims == data[0].dims


def test_training_determinism():
    data = generate_toy_dataset(ToySceneParams(dims=(8, 8, 4), num_classes=4,
                                               num_buildings=1, num_vehicles=0,
                                               num_poles=0), 6, 5)
    config = vq.VQVAEConfig(num_classes=4, num_codes=8, code_dim=3, hidden=6)
    a = vq.train_vqvae(data, config, seed=9, epochs=2)
    b = vq.train_vqvae(data, config, seed=9, epochs=2)
    assert all(np.array_equal(a.params[k], b.params[k]) for k in a.params)
    with pytest.raises(ValueError):
        vq.train_vqvae([], config, seed=0)


def test_logged_loss_is_the_epoch_mean():
    # Scenes of very different content make the last batch's mean differ from
    # the epoch's. With lr=0 every loss is taken at the initial parameters.
    data = generate_toy_dataset(ToySceneParams(dims=(8, 8, 4), num_classes=4,
                                               num_buildings=1, num_vehicles=0,
                                               num_poles=0), 3, 5)
    data.append(VoxelGrid(np.zeros((8, 8, 4), dtype=int)))
    config = vq.VQVAEConfig(num_classes=4, num_codes=8, code_dim=3, hidden=6)
    lines = []
    vq.train_vqvae(data, config, seed=2, epochs=1, batch_size=2, lr=0.0, log=lines.append)
    params = vq.init_params(config, 2)
    weights = inverse_frequency_weights(data, 4)
    losses = []
    for g in data:
        x = one_hot(g, 4).probs
        z = vq.encode(params, config, g)
        zq, _ = vq.quantize(params["codes"], z)
        losses.append(vq.vqvae_loss(x, vq.decode(params, config, zq), z, zq, weights)[0])
    assert len(lines) == 1 and lines[0].startswith("epoch 1 loss ")
    assert float(lines[0].split()[3]) == pytest.approx(np.mean(losses), abs=5e-5)


def test_config_rejects_wrong_stride_stages():
    for strides in (((2, 2, 1), (2, 2, 2), (1, 1, 1)), ((2, 2, 1),), ((2, 2), (2, 2, 2))):
        with pytest.raises(ValueError, match="strides"):
            vq.VQVAEConfig(num_classes=4, strides=strides)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(6)
    params = vq.init_params(SMALL, 1)
    weights = inverse_frequency_weights(
        [VoxelGrid(rng.integers(0, 4, size=(4, 4, 2)))], 4)
    result = vq.VQVAETrainResult(params, SMALL, weights)
    path = tmp_path / "vq.vxdn"
    vq.save_vqvae(path, result)
    loaded = vq.load_vqvae(path)
    assert loaded.config == SMALL
    assert all(np.array_equal(loaded.params[k], params[k]) for k in params)
    np.testing.assert_allclose(loaded.weights, weights.astype(np.float32))
    g = VoxelGrid(rng.integers(0, 4, size=(8, 8, 2)))
    assert vq.reconstruct(loaded.params, loaded.config, g) == \
        vq.reconstruct(params, SMALL, g)


def test_load_rejects_wrong_kind(tmp_path):
    from scenediff.checkpoint import save_checkpoint
    path = tmp_path / "other.vxdn"
    save_checkpoint(path, {"a": np.zeros(2)}, {"kind": "denoiser"})
    with pytest.raises(CheckpointError):
        vq.load_vqvae(path)
