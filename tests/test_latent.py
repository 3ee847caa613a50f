import numpy as np
import pytest

from scenediff import latent as lat
from scenediff import vqvae as vq
from scenediff.grids import CategoricalField, VoxelGrid, argmax_decode, one_hot
from scenediff.schedule import UniformTransition, make_schedule
from scenediff.toydata import ToySceneParams, generate_toy_dataset


def make_vq(seed=0):
    config = vq.VQVAEConfig(num_classes=4, num_codes=6, code_dim=3, hidden=5,
                            strides=((2, 2, 1), (2, 2, 2)))
    params = vq.init_params(config, seed)
    return vq.VQVAETrainResult(params, config, np.ones(4))


def test_encode_dataset_shapes_and_agreement():
    vqr = make_vq()
    data = generate_toy_dataset(ToySceneParams(dims=(8, 8, 4), num_classes=4,
                                               num_buildings=1, num_vehicles=0,
                                               num_poles=0), 3, 1)
    grids = lat.encode_dataset(vqr, data)
    assert len(grids) == 3
    for g, scene in zip(grids, data):
        assert g.dims == (2, 2, 2)
        assert g.labels.max() < vqr.config.num_codes
        z = vq.encode(vqr.params, vqr.config, one_hot(scene, 4))
        _, idx = vq.quantize(vqr.params["codes"], z)
        assert np.array_equal(g.labels, idx)


def test_train_latent_denoiser_smoke():
    vqr = make_vq()
    trans = UniformTransition(6, make_schedule("cosine", 5))
    data = generate_toy_dataset(ToySceneParams(dims=(8, 8, 4), num_classes=4,
                                               num_buildings=1, num_vehicles=0,
                                               num_poles=0), 4, 2)
    params, config, history = lat.train_latent_denoiser(
        data, vqr, trans, seed=0, epochs=3, hidden=(4, 6))
    assert config.num_classes == 6 and config.in_channels == 6
    assert len(history) == 3
    assert all(np.isfinite(h) for h in history)
    wrong = UniformTransition(5, make_schedule("cosine", 5))
    with pytest.raises(ValueError):
        lat.train_latent_denoiser(data, vqr, wrong, seed=0, epochs=1)


def test_sample_latent_pins_to_denoiser_output():
    # a denoiser that always predicts code 3 forces a known index grid, so the
    # sample must equal the plain decode of that grid
    vqr = make_vq(seed=4)
    trans = UniformTransition(6, make_schedule("cosine", 4))
    config = lat.dn.DenoiserConfig(num_classes=6, in_channels=6, hidden=(4, 6),
                                   num_steps=4)

    fixed = np.full((2, 2, 2), 3)
    logits = np.log(one_hot(VoxelGrid(fixed), 6).probs + 1e-12)

    def params_free_sample(rng):
        def denoise(x_t, t, condition):
            return CategoricalField(logits)

        from scenediff.diffusion import sample_loop
        idx = sample_loop(denoise, (2, 2, 2), trans, rng)
        return idx

    idx = params_free_sample(np.random.default_rng(0))
    assert np.array_equal(idx.labels, fixed)

    zq = vqr.params["codes"][fixed]
    expected = argmax_decode(CategoricalField(vq.decode(vqr.params, vqr.config, zq)))

    # run through the public path with a denoiser whose output dominates
    big = vqr.params.copy()
    latent_params = lat.dn.init_params(config, 0)
    latent_params = {k: np.zeros_like(v) for k, v in latent_params.items()}
    latent_params["out_b"] = logits[0, 0, 0] * 50
    got = lat.sample_latent(latent_params, config, vqr, (2, 2, 2), trans,
                            np.random.default_rng(1))
    assert got == expected
    assert got.dims == (8, 8, 4)


def test_sample_latent_output_dims_scale_with_strides():
    vqr = make_vq()
    trans = UniformTransition(6, make_schedule("cosine", 3))
    config = lat.dn.DenoiserConfig(num_classes=6, in_channels=6, hidden=(4, 6),
                                   num_steps=3)
    params = lat.dn.init_params(config, 0)
    out = lat.sample_latent(params, config, vqr, (3, 2, 1), trans,
                            np.random.default_rng(2))
    assert out.dims == (12, 8, 2)  # total stride (4, 4, 2)


def test_sample_latent_rejects_codebook_mismatch():
    vqr = make_vq()  # 6 codes
    for k_model, k_trans in ((5, 6), (6, 5)):
        trans = UniformTransition(k_trans, make_schedule("cosine", 3))
        config = lat.dn.DenoiserConfig(num_classes=k_model, in_channels=k_model,
                                       hidden=(4, 6), num_steps=3)
        with pytest.raises(ValueError, match="codebook"):
            lat.sample_latent(lat.dn.init_params(config, 0), config, vqr, (2, 2, 1), trans,
                              np.random.default_rng(0))


def test_timing_report_layout(tmp_path):
    report = lat.TimingReport([
        lat.TimingRow("voxel", (16, 16, 4), 0.125, 0.5),
        lat.TimingRow("latent", (4, 4, 2), 0.03125, 0.0625),
    ])
    text = report.as_text()
    lines = text.splitlines()
    assert len(lines) == 3
    assert "voxel" in lines[1] and "16x16x4" in lines[1]
    assert "0.0312" in lines[2]
    path = tmp_path / "timing.csv"
    report.write_csv(path)
    rows = path.read_text().strip().splitlines()
    assert rows[0].startswith("model,resolution")
    assert rows[1].split(",")[1] == "16x16x4"
    assert float(rows[2].split(",")[3]) == pytest.approx(0.0625)


def test_timing_report_measures_both_spaces():
    report = lat.timing_report((8, 8, 2), 4, [(2, 2, 1)], 6,
                               num_steps=3, trials=1, hidden=(3, 4),
                               train_examples=1)
    assert [r.label for r in report.rows] == ["voxel", "latent"]
    assert all(r.train_seconds > 0 and r.sample_seconds > 0 for r in report.rows)
