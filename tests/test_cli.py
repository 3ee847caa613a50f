import json

import numpy as np
import pytest

from scenediff import denoiser as dn
from scenediff import vqvae as vq
from scenediff.cli import main
from scenediff.config import RunConfig, load_run_config, parse_config_text
from scenediff.errors import ConfigError
from scenediff.sceneio import load_scene, save_scene
from scenediff.grids import VoxelGrid
from scenediff.toydata import ToySceneParams, generate_toy_scene, toy_class_table


def run(argv):
    return main(argv)


def test_config_parsing():
    text = """
    # a comment
    num_steps = 7
    dims = 8x8x4  # trailing comment
    hidden = 4,6
    vq_strides = 2,2,1;2,2,2
    """
    values = parse_config_text(text)
    assert values == {"num_steps": 7, "dims": (8, 8, 4), "hidden": (4, 6),
                      "vq_strides": ((2, 2, 1), (2, 2, 2))}


def test_config_rejects_bad_lines():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("no_such_key = 3")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("seed = 1\nseed = 2")
    with pytest.raises(ConfigError, match="bad value"):
        parse_config_text("epochs = soon")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just words")


def test_load_run_config_precedence(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("epochs = 3\nlr = 0.01\n")
    logged = []
    cfg = load_run_config(path, {"lr": "0.5"}, log=logged.append)
    assert cfg.epochs == 3
    assert cfg.lr == 0.5  # override beats the file
    assert cfg.seed == RunConfig().seed
    assert any("default seed" in line for line in logged)
    with pytest.raises(ConfigError):
        load_run_config(None, {"bogus": "1"})


def test_gen_data_deterministic_and_loadable(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(["gen-data", "--out", str(out), "--scenes", "3",
                    "--dims", "8x8x4", "--classes", "4", "--seed", "5"]) == 0
    m1 = json.loads((out1 / "manifest.json").read_text())
    assert m1["files"] == ["scene_0000.vxsc", "scene_0001.vxsc", "scene_0002.vxsc"]
    assert m1["dims"] == [8, 8, 4]
    for name in m1["files"]:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    # round-trips to the procedural generator output
    g, table = load_scene(out1 / "scene_0001.vxsc")
    expected = generate_toy_scene(ToySceneParams(dims=(8, 8, 4), num_classes=4), 6)
    assert g == expected
    assert table.num_classes == 4


def test_cli_errors_print_prefix_and_exit_nonzero(tmp_path, capsys):
    assert run(["export", "--scene", str(tmp_path / "missing.vxsc"),
                "--out", str(tmp_path / "x.ply")]) == 1
    assert capsys.readouterr().out.startswith("error: ")
    assert run(["train-diffusion", "--data", str(tmp_path), "--out",
                str(tmp_path / "x.vxdn")]) == 1
    assert capsys.readouterr().out.startswith("error: ")
    cfgfile = tmp_path / "bad.cfg"
    cfgfile.write_text("nope = 1\n")
    (tmp_path / "scene.vxsc").write_bytes(b"")
    assert run(["train-diffusion", "--config", str(cfgfile),
                "--data", str(tmp_path), "--out", str(tmp_path / "x.vxdn")]) == 1
    out = capsys.readouterr().out
    assert "error:" in out and "unknown key" in out


def test_train_rejects_wrong_stage_counts(tmp_path, capsys):
    data = tmp_path / "data"
    assert run(["gen-data", "--out", str(data), "--scenes", "2", "--dims", "8x8x4",
                "--classes", "4"]) == 0
    capsys.readouterr()
    for command, setting, field in (("train-diffusion", "hidden=4,4,4", "hidden"),
                                    ("train-vqvae", "vq_strides=2,2,1;2,2,1;1,1,1", "strides")):
        assert run([command, "--data", str(data), "--out", str(tmp_path / "x.vxdn"),
                    "--set", "num_classes=4", "--set", setting]) == 1
        out = capsys.readouterr().out
        assert out.startswith("error: ") and len(out.splitlines()) == 1
        assert field in out


def test_export_empty_scene(tmp_path):
    table = toy_class_table(3)
    path = tmp_path / "empty.vxsc"
    save_scene(VoxelGrid(np.zeros((4, 4, 2), dtype=int)), table, path)
    out = tmp_path / "empty.ply"
    assert run(["export", "--scene", str(path), "--format", "ply",
                "--out", str(out)]) == 0
    assert "element vertex 0" in out.read_text()
    slices = tmp_path / "slices"
    assert run(["export", "--scene", str(path), "--format", "slices",
                "--out", str(slices)]) == 0
    assert len(list(slices.glob("*.ppm"))) == 2


def test_end_to_end_pipeline(tmp_path):
    data = tmp_path / "data"
    assert run(["gen-data", "--out", str(data), "--scenes", "6",
                "--dims", "8x8x4", "--classes", "4", "--seed", "0"]) == 0
    common = ["--set", "num_classes=4", "--set", "dims=8x8x4",
              "--set", "epochs=1", "--set", "num_steps=3",
              "--set", "hidden=3,4"]

    ckpt = tmp_path / "diff.vxdn"
    assert run(["train-diffusion", "--data", str(data), "--out", str(ckpt)]
               + common) == 0
    samples = tmp_path / "samples"
    assert run(["sample", "--ckpt", str(ckpt), "--dims", "8x8x4",
                "--count", "2", "--seed", "1", "--out", str(samples)]) == 0
    s0, _ = load_scene(samples / "sample_0000.vxsc")
    assert s0.dims == (8, 8, 4) and s0.labels.max() < 4

    vq_ckpt = tmp_path / "vq.vxdn"
    assert run(["train-vqvae", "--data", str(data), "--out", str(vq_ckpt)]
               + common + ["--set", "vq_num_codes=8", "--set", "vq_code_dim=3",
                           "--set", "vq_hidden=4"]) == 0
    lat_ckpt = tmp_path / "lat.vxdn"
    assert run(["train-latent", "--data", str(data), "--vqvae", str(vq_ckpt),
                "--out", str(lat_ckpt)] + common) == 0
    lat_samples = tmp_path / "lat_samples"
    assert run(["sample", "--ckpt", str(lat_ckpt), "--vqvae", str(vq_ckpt),
                "--dims", "2x2x2", "--count", "1", "--out", str(lat_samples)]) == 0
    ls, _ = load_scene(lat_samples / "sample_0000.vxsc")
    assert ls.dims == (8, 8, 4)

    cond_ckpt = tmp_path / "cond.vxdn"
    assert run(["train-conditional", "--data", str(data), "--out", str(cond_ckpt)]
               + common) == 0
    base_ckpt = tmp_path / "base.vxdn"
    assert run(["train-baseline", "--data", str(data), "--out", str(base_ckpt)]
               + common) == 0

    # completion needs a condition scene on disk
    scene, table = load_scene(data / "scene_0000.vxsc")
    from scenediff.grids import sparsify
    cond_path = tmp_path / "cond.vxsc"
    save_scene(sparsify(scene, 0.2, 0), toy_class_table(4), cond_path)
    done = tmp_path / "completed.vxsc"
    assert run(["complete", "--ckpt", str(cond_ckpt), "--condition",
                str(cond_path), "--out", str(done)]) == 0
    completed, _ = load_scene(done)
    assert completed.dims == scene.dims
    # an unconditional checkpoint is rejected for completion
    assert run(["complete", "--ckpt", str(ckpt), "--condition",
                str(cond_path), "--out", str(done)]) == 1

    prefix = tmp_path / "eval"
    assert run(["eval", "--methods",
                f"majority,baseline={base_ckpt},diffusion={cond_ckpt}",
                "--data", str(data), "--rate", "0.2", "--seed", "0",
                "--out", str(prefix)]) == 0
    text = (tmp_path / "eval.txt").read_text()
    assert all(m in text for m in ("majority", "baseline", "diffusion"))
    rows = [r.split(",") for r in (tmp_path / "eval.csv").read_text().strip().splitlines()[1:]]
    # the reported mIoU equals the mean of the per-class columns
    for method in ("majority", "baseline", "diffusion"):
        per_class = [float(r[2]) for r in rows
                     if r[0] == method and not r[1].startswith("__") and r[2]]
        miou = next(float(r[2]) for r in rows if r[0] == method and r[1] == "__miou__")
        assert miou == pytest.approx(np.mean(per_class), abs=1e-5)


def test_eval_rejects_unknown_method(tmp_path, capsys):
    data = tmp_path / "data"
    run(["gen-data", "--out", str(data), "--scenes", "1", "--dims", "8x8x4",
         "--classes", "4"])
    assert run(["eval", "--methods", "psychic", "--data", str(data),
                "--out", str(tmp_path / "e")]) == 1
    assert "unknown method" in capsys.readouterr().out


def test_sample_rejects_truncated_checkpoint(tmp_path, capsys):
    config = dn.DenoiserConfig(num_classes=3, in_channels=3, hidden=(3, 4), num_steps=3)
    ckpt = tmp_path / "d.vxdn"
    dn.save_denoiser(ckpt, dn.init_params(config, 0), config)
    ckpt.write_bytes(ckpt.read_bytes()[:12])
    assert run(["sample", "--ckpt", str(ckpt), "--out", str(tmp_path / "s")]) == 1
    out = capsys.readouterr().out
    assert out.startswith("error: ") and len(out.splitlines()) == 1


def test_sample_rejects_latent_codebook_mismatch(tmp_path, capsys):
    vq_config = vq.VQVAEConfig(num_classes=4, num_codes=8, code_dim=3, hidden=4)
    vq_ckpt = tmp_path / "vq.vxdn"
    vq.save_vqvae(vq_ckpt, vq.VQVAETrainResult(vq.init_params(vq_config, 0), vq_config,
                                              np.ones(4)))
    # 6 latent classes index a valid subset of the 8 codes, so nothing else fails
    config = dn.DenoiserConfig(num_classes=6, in_channels=6, hidden=(3, 4), num_steps=3)
    lat_ckpt = tmp_path / "lat.vxdn"
    dn.save_denoiser(lat_ckpt, dn.init_params(config, 0), config)
    assert run(["sample", "--ckpt", str(lat_ckpt), "--vqvae", str(vq_ckpt),
                "--dims", "2x2x2", "--out", str(tmp_path / "s")]) == 1
    out = capsys.readouterr().out
    assert out.startswith("error: ") and len(out.splitlines()) == 1
    assert "codebook" in out


def test_malformed_checkpoint_prints_one_error_line(malformed_checkpoint, tmp_path, capsys):
    path, loaded_as, valid = malformed_checkpoint
    if loaded_as == "vqvae":
        argv = ["sample", "--ckpt", str(valid["denoiser"]), "--vqvae", str(path),
                "--dims", "2x2x2"]
    else:
        argv = ["sample", "--ckpt", str(path)]
    assert run(argv + ["--out", str(tmp_path / "s")]) == 1
    out = capsys.readouterr().out
    assert out.startswith("error: ") and len(out.splitlines()) == 1
