import json

import numpy as np
import pytest

from conftest import write_valid_models
from scenediff import denoiser as dn
from scenediff import vqvae as vq
from scenediff.cli import main
from scenediff.config import RunConfig, Triple, convert, load_run_config, parse_config_text
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
    lr = 0.01  # trailing comment
    hidden = 4,6
    vq_strides = 2,2,1;2,2,2
    """
    values = parse_config_text(text)
    assert values == {"num_steps": 7, "lr": 0.01, "hidden": (4, 6),
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


def test_convert_checks_each_annotation():
    assert convert(Triple, "8x8x4", "dims") == (8, 8, 4)
    assert convert(tuple[Triple, Triple], [[2, 2, 1], (2, 2, 2)], "strides") == \
        ((2, 2, 1), (2, 2, 2))
    assert convert(int, 3.0, "n") == 3 and type(convert(int, 3.0, "n")) is int
    assert convert(float, "1e-3", "lr") == 1e-3 and convert(str, "cosine", "s") == "cosine"
    for kind, value in ((int, True), (int, None), (int, 3.5), (int, "3.5"), (int, "soon"),
                        (float, "nan"), (float, float("inf")), (int, 10 ** 400), (str, 3),
                        (tuple[int, int], [1, 2, 3]), (tuple[int, int], "4"),
                        (Triple, "2,2"), (tuple[Triple, Triple], "2,2;2,2,2")):
        with pytest.raises(ConfigError, match="for the field"):
            convert(kind, value, "the field")


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
                    "--set", setting]) == 1
        out = capsys.readouterr().out
        assert out.startswith("error: ") and len(out.splitlines()) == 1
        assert field in out


@pytest.fixture(scope="module")
def tiny_data(tmp_path_factory):
    data = tmp_path_factory.mktemp("tiny") / "data"
    assert run(["gen-data", "--out", str(data), "--scenes", "3", "--dims", "8x8x4",
                "--classes", "4"]) == 0
    return data


def _one_error_line(out: str) -> bool:
    lines = out.splitlines()
    return lines[-1].startswith("error: ") and sum(x.startswith("error:") for x in lines) == 1


BAD_SETTINGS = [  # (command, --set values, what the error line names)
    ("train-diffusion", ["batch_size=0"], "batch_size"),
    ("train-diffusion", ["epochs=0"], "epochs"),
    # one epoch of one step: no later loss turns non-finite
    ("train-diffusion", ["lr=nan", "epochs=1"], "'lr'"),
    ("train-diffusion", ["lr=inf", "epochs=1"], "'lr'"),
    ("train-diffusion", ["lr=1e40", "epochs=1"], "not finite"),  # overflows only in float32
    ("train-diffusion", ["hidden=4"], "'hidden'"),
    ("train-vqvae", ["vq_strides=2,2;2,2,2"], "'vq_strides'"),
    ("train-diffusion", ["hidden=0,4"], "hidden=(0, 4)"),
    ("train-vqvae", ["vq_strides=0,2,1;2,2,2"], "strides=((0, 2, 1)"),
    ("train-diffusion", ["dims=8x8x4"], "unknown key 'dims'"),
    ("train-diffusion", ["num_classes=4"], "unknown key 'num_classes'"),
    ("train-diffusion", ["w0=-1"], "w0"),
    ("train-vqvae", ["vq_beta_commit=-5"], "beta_commit"),
    ("train-diffusion", ["seed=-1"], "'seed'")]


@pytest.mark.parametrize("command,settings,reason", BAD_SETTINGS,
                         ids=["+".join(settings) for _, settings, _ in BAD_SETTINGS])
def test_train_rejects_bad_setting(tiny_data, tmp_path, capsys, command, settings, reason):
    out = tmp_path / "x.vxdn"
    argv = [command, "--data", str(tiny_data), "--out", str(out),
            "--set", "num_steps=3", "--set", "hidden=3,4", "--set", "vq_hidden=4"]
    assert run(argv + [a for s in settings for a in ("--set", s)]) == 1
    text = capsys.readouterr().out
    assert _one_error_line(text) and reason in text.splitlines()[-1]
    assert not out.exists()


def test_train_rejects_mixed_class_tables(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    for k in (4, 5):
        scene = generate_toy_scene(ToySceneParams(dims=(8, 8, 4), num_classes=k), k)
        save_scene(scene, toy_class_table(k), data / f"scene_{k}.vxsc")
    out = tmp_path / "x.vxdn"
    assert run(["train-diffusion", "--data", str(data), "--out", str(out)]) == 1
    text = capsys.readouterr().out
    assert _one_error_line(text) and "scene_5.vxsc" in text
    assert not out.exists()


def test_bad_dims_flag_prints_one_error_line(tmp_path, capsys):
    ckpt = write_valid_models(tmp_path)["denoiser"]
    for argv in (["gen-data", "--dims", "8x8"],
                 ["sample", "--ckpt", str(ckpt), "--dims", "8x8x1.5"]):
        assert run(argv + ["--out", str(tmp_path / "out")]) == 1
        text = capsys.readouterr().out
        assert text.startswith("error: ") and len(text.splitlines()) == 1
        assert "--dims" in text
    assert not (tmp_path / "out").exists()


def test_eval_checks_the_mode_extra(tiny_data, tmp_path, capsys):
    config = dn.DenoiserConfig(num_classes=4, in_channels=5, hidden=(3, 4), num_steps=3)
    params = dn.init_params(config, 0)
    for mode, method in (("baseline", "diffusion"), ("conditional", "baseline")):
        path = tmp_path / f"{mode}.vxdn"
        dn.save_denoiser(path, params, config, extra={"mode": mode})
        assert run(["eval", "--methods", f"{method}={path}", "--data", str(tiny_data),
                    "--out", str(tmp_path / "e")]) == 1
        text = capsys.readouterr().out
        assert text.startswith("error: ") and len(text.splitlines()) == 1
    # a file written through the API has no mode extra and loads as either
    path = tmp_path / "api.vxdn"
    dn.save_denoiser(path, params, config)
    assert run(["eval", "--methods", f"baseline={path},diffusion={path}",
                "--data", str(tiny_data), "--out", str(tmp_path / "e")]) == 0


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
    common = ["--set", "epochs=1", "--set", "num_steps=3", "--set", "hidden=3,4"]

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
