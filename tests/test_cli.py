import os
import re
import resource
import struct
import subprocess
import sys
from pathlib import Path
from typing import Annotated

import numpy as np
import pytest

import scenediff
from conftest import RETIRED_KEYS, write_valid_models
from scenediff import denoiser as dn
from scenediff import ssc
from scenediff import vqvae as vq
from scenediff.checkpoint import load_checkpoint
from scenediff.cli import main
from scenediff.config import (Rate, RunConfig, Seed, Size, Triple, convert, field_types,
                              from_values, load_run_config, parse_config_text)
from scenediff.errors import ConfigError
from scenediff.sceneio import FLAG_RLE, MAGIC, RUN, load_scene, save_scene
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
    assert convert(float, "1e-3", "lr") == 1e-3
    assert convert(tuple[Size, Size], "16,32", "hidden") == (16, 32)
    assert convert(Seed, "0", "seed") == 0 and convert(Annotated[float, 0], 0.0, "w0") == 0.0
    assert convert(Rate, 1, "rate") == 1.0 and convert(Rate, "1e-300", "rate") == 1e-300
    for kind, value in ((int, True), (int, None), (int, 3.5), (int, "3.5"), (int, "soon"),
                        (float, "nan"), (float, float("inf")), (int, 10 ** 400),
                        (tuple[int, int], [1, 2, 3]), (tuple[int, int], "4"),
                        (Triple, "2,2"), (tuple[Triple, Triple], "2,2;2,2,2"),
                        (Size, "0"), (Size, -3), (Seed, -1), (Annotated[float, 0], -1e-300),
                        (Annotated[int, 2], 1), (Triple, "8x0x4"),
                        (tuple[Triple, Triple], "2,2,1;2,-1,2"), (Rate, 0), (Rate, -1e-300),
                        (Rate, "1.5"), (Rate, float("nan"))):
        with pytest.raises(ConfigError, match="for the field"):
            convert(kind, value, "the field")


@pytest.mark.parametrize("make,field", [
    (lambda: dn.DenoiserConfig(num_classes=0, in_channels=1), "'num_classes'"),
    (lambda: dn.DenoiserConfig(num_classes=4, in_channels=4, hidden=(0, 4)), "'hidden'"),
    (lambda: dn.DenoiserConfig(num_classes=4, in_channels=6), "in_channels"),
    (lambda: vq.VQVAEConfig(num_classes=4, num_codes=1), "'num_codes'"),
    (lambda: vq.VQVAEConfig(num_classes=4, strides=((2, 2, 1), (2, 0, 2))), "'strides'"),
    (lambda: from_values(vq.VQVAEConfig, {"num_classes": 4, "beta_commit": 0.25}),
     "unknown key 'beta_commit'")])
def test_model_configs_refuse_each_rule_by_name(make, field):
    with pytest.raises(ValueError, match=field):
        make()


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


def test_shipped_configs_load():
    paths = sorted((Path(__file__).parents[1] / "configs").glob("*.cfg"))
    assert paths
    for path in paths:
        assert isinstance(load_run_config(path), RunConfig), path.name


def test_readme_key_table_names_exactly_the_run_config_fields():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    rows = readme.split("\n| key ", 1)[1].split("\n\n", 1)[0].splitlines()[2:]
    keys = [key for row in rows for key in re.findall(r"`(\w+)`", row.split("|")[1])]
    assert sorted(keys) == sorted(field_types(RunConfig))


def test_gen_data_deterministic_and_loadable(tmp_path):
    out1, out2 = tmp_path / "a", tmp_path / "b"
    for out in (out1, out2):
        assert run(["gen-data", "--out", str(out), "--scenes", "3",
                    "--dims", "8x8x4", "--classes", "4", "--seed", "5"]) == 0
    names = sorted(p.name for p in out1.iterdir())
    assert names == ["scene_0000.vxsc", "scene_0001.vxsc", "scene_0002.vxsc"]
    assert not (out1 / "manifest.json").exists()
    assert names == sorted(p.name for p in out2.iterdir())
    for name in names:
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
    ("train-diffusion", ["batch_size=0"], "'batch_size'"),
    ("train-diffusion", ["epochs=0"], "'epochs'"),
    ("train-diffusion", ["lr=-1"], "'lr'"),
    # one epoch of one step: no later loss turns non-finite
    ("train-diffusion", ["lr=nan", "epochs=1"], "'lr'"),
    ("train-diffusion", ["lr=inf", "epochs=1"], "'lr'"),
    ("train-diffusion", ["lr=1e40", "epochs=1"], "not finite"),  # overflows only in float32
    ("train-diffusion", ["hidden=4"], "'hidden'"),
    ("train-vqvae", ["vq_strides=2,2;2,2,2"], "'vq_strides'"),
    ("train-diffusion", ["hidden=0,4"], "'0' for 'hidden'"),
    ("train-vqvae", ["vq_strides=0,2,1;2,2,2"], "'0' for 'vq_strides'"),
    ("train-vqvae", ["vq_num_codes=1"], "'vq_num_codes'"),
    ("train-vqvae", ["vq_code_dim=0"], "'vq_code_dim'"),
    ("train-vqvae", ["vq_hidden=0"], "'vq_hidden'"),
    ("train-diffusion", ["dims=8x8x4"], "unknown key 'dims'"),
    ("train-diffusion", ["num_classes=4"], "unknown key 'num_classes'"),
    ("train-diffusion", ["w0=-1"], "w0"),
    ("train-vqvae", ["vq_beta_commit=-5"], "unknown key 'vq_beta_commit'"),
    ("train-diffusion", ["seed=-1"], "'seed'"),
    # RunConfig refuses these even where the command does not use the setting
    ("train-baseline", ["w0=-1"], "'w0'"),
    ("train-vqvae", ["w0=-1"], "'w0'"),
    ("train-diffusion", ["vq_beta_commit=-5"], "unknown key 'vq_beta_commit'"),
    ("train-diffusion", ["vq_num_codes=1"], "'vq_num_codes'"),
    ("train-baseline", ["schedule=bogus"], "unknown key 'schedule'"),
    ("train-vqvae", ["schedule=bogus"], "unknown key 'schedule'"),
    ("train-baseline", ["num_steps=0"], "'num_steps'")]


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


OUT_OF_RANGE = ["epochs=0", "batch_size=0", "lr=-1", "hidden=4,0", "num_steps=0",
                "vq_num_codes=1", "vq_code_dim=0", "vq_hidden=0", "vq_strides=2,2,1;2,0,2",
                "w0=-1", "seed=-1", "sparsity_rate=0", "sparsity_rate=1.5"]


@pytest.mark.parametrize("command", ["train-diffusion", "train-vqvae", "train-latent",
                                     "train-baseline", "train-conditional"])
def test_train_refuses_each_out_of_range_key_before_reading_data(tmp_path, capsys, command):
    empty, out = tmp_path / "empty", tmp_path / "x.vxdn"
    empty.mkdir()  # read first, it would end in "no .vxsc scenes"
    argv = [command, "--data", str(empty), "--out", str(out)]
    if command == "train-latent":
        argv += ["--vqvae", str(tmp_path / "missing.vxdn")]
    for setting in OUT_OF_RANGE:
        assert run(argv + ["--set", setting]) == 1
        text = capsys.readouterr().out
        assert _one_error_line(text) and f"for {setting.partition('=')[0]!r} (" in text, text
        assert not out.exists()


@pytest.mark.parametrize("command", ["train-diffusion", "train-vqvae", "train-latent",
                                     "train-baseline", "train-conditional"])
def test_train_refuses_the_retired_keys_before_reading_data(tmp_path, capsys, command):
    empty, out, cfg = tmp_path / "empty", tmp_path / "x.vxdn", tmp_path / "run.cfg"
    empty.mkdir()
    argv = [command, "--data", str(empty), "--out", str(out)]
    if command == "train-latent":
        argv += ["--vqvae", str(tmp_path / "missing.vxdn")]
    for key, value in (("schedule", "cosine"), ("vq_beta_commit", "0.25")):
        cfg.write_text(f"{key} = {value}\n")
        for given in (["--set", f"{key}={value}"], ["--config", str(cfg)]):
            assert run(argv + given) == 1
            text = capsys.readouterr().out
            assert _one_error_line(text) and f"unknown key {key!r}" in text, text
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
    for argv, expected in ((["gen-data", "--dims", "8x8"], "'dims' (expected 3 values"),
                           (["gen-data", "--dims", "0x8x4"], "'dims' (expected a finite int"),
                           (["gen-data", "--dims", "4x8x4"], "'dims' (expected a finite int >= 8"),
                           (["gen-data", "--classes", "3"], "'num_classes' (expected a finite int"),
                           (["gen-data", "--classes", "x"], "'num_classes' (expected a finite int"),
                           (["sample", "--ckpt", str(ckpt), "--dims", "8x8x1.5"], "--dims"),
                           (["sample", "--ckpt", str(ckpt), "--dims", "0x4x4"], "--dims"),
                           (["sample", "--ckpt", str(ckpt), "--dims", "4x-1x4"], "--dims")):
        assert run(argv + ["--out", str(tmp_path / "out")]) == 1
        text = capsys.readouterr().out
        assert text.startswith("error: ") and len(text.splitlines()) == 1
        assert expected in text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command,flag", [("gen-data", "--scenes"), ("sample", "--count")])
@pytest.mark.parametrize("value", ["-2", "0"])
def test_count_below_one_prints_one_error_line(tmp_path, capsys, command, flag, value):
    argv = [command, flag, value, "--out", str(tmp_path / "out")]
    if command == "sample":
        argv += ["--ckpt", str(write_valid_models(tmp_path)["denoiser"])]
    assert run(argv) == 1
    text = capsys.readouterr().out
    assert text.startswith("error: ") and len(text.splitlines()) == 1
    assert flag in text
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command", ["gen-data", "sample", "complete", "eval"])
def test_negative_seed_names_its_flag_before_reading_files(tmp_path, capsys, command):
    missing = str(tmp_path / "missing")
    inputs = {"gen-data": [], "sample": ["--ckpt", missing],
              "complete": ["--ckpt", missing, "--condition", missing],
              "eval": ["--methods", "majority", "--data", missing]}[command]
    assert run([command, "--seed", "-1", "--out", str(tmp_path / "out")] + inputs) == 1
    text = capsys.readouterr().out
    assert _one_error_line(text) and "bad value '-1' for --seed" in text
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("value", ["0", "1.5", "x"])
def test_eval_rate_outside_0_1_names_its_flag_before_reading_files(tmp_path, capsys, value):
    assert run(["eval", "--methods", "majority", "--data", str(tmp_path / "missing"),
                "--rate", value, "--out", str(tmp_path / "out")]) == 1
    text = capsys.readouterr().out
    assert _one_error_line(text) and f"bad value {value!r} for --rate" in text
    assert not list(tmp_path.glob("out*"))


def test_eval_refuses_a_model_of_another_class_count(tmp_path, capsys):
    data = tmp_path / "data"
    assert run(["gen-data", "--out", str(data), "--scenes", "2", "--dims", "8x8x4",
                "--classes", "5"]) == 0
    capsys.readouterr()
    for k, mode, method in ((4, "baseline", "baseline"), (4, "conditional", "diffusion"),
                            (6, "conditional", "diffusion")):
        config = dn.DenoiserConfig(num_classes=k, in_channels=k + 1, hidden=(3, 4), num_steps=3)
        path = tmp_path / f"{mode}{k}.vxdn"
        dn.save_denoiser(path, dn.init_params(config, 0), config, extra={"mode": mode})
        assert run(["eval", "--methods", f"majority,{method}={path}", "--data", str(data),
                    "--out", str(tmp_path / "e")]) == 1
        text = capsys.readouterr().out
        assert _one_error_line(text) and f"has {k} classes; --data has 5" in text
        assert not list(tmp_path.glob("e.*"))


def test_eval_checks_the_mode_extra(tiny_data, tmp_path, capsys):
    config = dn.DenoiserConfig(num_classes=4, in_channels=5, hidden=(3, 4), num_steps=3)
    params = dn.init_params(config, 0)
    for mode, method in (("baseline", "diffusion"), ("conditional", "baseline"),
                         ("unconditional", "diffusion"), ("latent", "diffusion")):
        path = tmp_path / f"{mode}.vxdn"
        dn.save_denoiser(path, params, config, extra={"mode": mode})
        assert run(["eval", "--methods", f"{method}={path}", "--data", str(tiny_data),
                    "--out", str(tmp_path / "e")]) == 1
        text = capsys.readouterr().out
        assert text.startswith("error: ") and len(text.splitlines()) == 1
        assert f"mode {mode}" in text and f"eval {method}=" in text
        assert not list(tmp_path.glob("e.*"))
    # a file written through the API has no mode extra and loads as either; each
    # item and its path are stripped
    path = tmp_path / "api.vxdn"
    dn.save_denoiser(path, params, config)
    assert run(["eval", "--methods", f" majority , baseline = {path} ,diffusion= {path} ",
                "--data", str(tiny_data), "--out", str(tmp_path / "e")]) == 0


@pytest.mark.parametrize("mode", ["unconditional", "latent", "baseline"])
def test_complete_checks_the_mode_extra(tmp_path, capsys, mode):
    config = dn.DenoiserConfig(num_classes=4, in_channels=5, hidden=(3, 4), num_steps=3)
    ckpt = tmp_path / f"{mode}.vxdn"
    dn.save_denoiser(ckpt, dn.init_params(config, 0), config, extra={"mode": mode})
    condition = tmp_path / "cond.vxsc"
    save_scene(VoxelGrid(np.zeros((8, 8, 4), dtype=int)), toy_class_table(4), condition)
    assert run(["complete", "--ckpt", str(ckpt), "--condition", str(condition),
                "--out", str(tmp_path / "done.vxsc")]) == 1
    out = capsys.readouterr().out
    assert out.startswith("error: ") and len(out.splitlines()) == 1
    assert f"mode {mode}" in out and "complete takes mode conditional" in out
    assert not (tmp_path / "done.vxsc").exists()


def test_complete_refuses_a_class_count_without_a_table_before_sampling(tmp_path, capsys,
                                                                        monkeypatch):
    config = dn.DenoiserConfig(num_classes=12, in_channels=13, hidden=(3, 4), num_steps=3)
    ckpt = tmp_path / "k12.vxdn"
    dn.save_denoiser(ckpt, dn.init_params(config, 0), config, extra={"mode": "conditional"})
    condition = tmp_path / "cond.vxsc"
    save_scene(VoxelGrid(np.zeros((8, 8, 4), dtype=int)), toy_class_table(4), condition)
    calls = []
    monkeypatch.setattr(ssc, "complete", lambda *a, **kw: calls.append(a))
    assert run(["complete", "--ckpt", str(ckpt), "--condition", str(condition),
                "--out", str(tmp_path / "done.vxsc")]) == 1
    out = capsys.readouterr().out
    assert _one_error_line(out) and "2..11 classes" in out
    assert not calls and not (tmp_path / "done.vxsc").exists()


@pytest.mark.parametrize("command", ["sample", "complete", "eval"])
def test_readers_refuse_a_file_with_the_retired_architecture_keys(tiny_data, tmp_path, capsys,
                                                                   command):
    ckpt = tmp_path / "old.vxdn"
    RETIRED_KEYS(ckpt)
    argv = {"sample": ["sample", "--ckpt", str(ckpt)],
            "complete": ["complete", "--ckpt", str(ckpt),
                         "--condition", str(tiny_data / "scene_0000.vxsc")],
            "eval": ["eval", "--methods", f"diffusion={ckpt}", "--data", str(tiny_data)]}
    out = tmp_path / "out"
    assert run(argv[command] + ["--out", str(out)]) == 1
    text = capsys.readouterr().out
    assert _one_error_line(text) and "bad denoiser config: unknown key 'kernel'" in text
    assert not list(tmp_path.glob("out*"))


@pytest.mark.parametrize("command", ["sample", "complete", "eval"])
def test_readers_refuse_a_file_trained_under_another_schedule(tiny_data, tmp_path, capsys,
                                                              monkeypatch, command):
    conditional = command != "sample"
    config = dn.DenoiserConfig(num_classes=4, in_channels=4 + conditional, hidden=(3, 4),
                               num_steps=3)
    ckpt = tmp_path / "linear.vxdn"
    dn.save_denoiser(ckpt, dn.init_params(config, 0), config,
                     extra={"mode": "conditional" if conditional else "unconditional",
                            "schedule": "linear"})
    calls = []
    monkeypatch.setattr("scenediff.cli.sample_loop", lambda *a: calls.append(a))
    monkeypatch.setattr(ssc, "complete", lambda *a: calls.append(a))
    argv = {"sample": ["sample", "--ckpt", str(ckpt)],
            "complete": ["complete", "--ckpt", str(ckpt),
                         "--condition", str(tiny_data / "scene_0000.vxsc")],
            "eval": ["eval", "--methods", f"diffusion={ckpt}", "--data", str(tiny_data)]}
    assert run(argv[command] + ["--out", str(tmp_path / "out")]) == 1
    text = capsys.readouterr().out
    assert _one_error_line(text) and "trained under the linear schedule" in text
    assert not calls and not list(tmp_path.glob("out*"))


def test_a_file_with_a_cosine_schedule_extra_samples_as_one_without(tmp_path):
    # files written before the schedule was fixed name it; cosine ones still load
    config = dn.DenoiserConfig(num_classes=4, in_channels=4, hidden=(3, 4), num_steps=3)
    params = dn.init_params(config, 0)
    for name, extra in (("named", {"schedule": "cosine"}), ("unnamed", {})):
        ckpt = tmp_path / f"{name}.vxdn"
        dn.save_denoiser(ckpt, params, config, extra={"mode": "unconditional", **extra})
        assert run(["sample", "--ckpt", str(ckpt), "--dims", "4x4x2", "--count", "2",
                    "--out", str(tmp_path / name)]) == 0
    for i in range(2):
        sample = f"sample_{i:04d}.vxsc"
        assert (tmp_path / "named" / sample).read_bytes() == \
            (tmp_path / "unnamed" / sample).read_bytes()


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


def test_scene_with_a_zero_dim_prints_one_error_line(tmp_path, capsys):
    data = tmp_path / "data"
    data.mkdir()
    path = data / "zero.vxsc"
    save_scene(VoxelGrid(np.zeros((1, 8, 4), dtype=int)), toy_class_table(3), path, rle=False)
    raw = bytearray(path.read_bytes()[:-32])  # no payload left
    struct.pack_into("<I", raw, 8, 0)  # the first of the three u32 dims
    path.write_bytes(bytes(raw))
    for argv in (["export", "--scene", str(path), "--format", "ply"],
                 ["train-diffusion", "--data", str(data)]):
        assert run(argv + ["--out", str(tmp_path / "out")]) == 1
        out = capsys.readouterr().out
        assert _one_error_line(out) and "scene dims 0x8x4" in out
    assert not (tmp_path / "out").exists()


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

    # each file keeps only the extras something reads
    for path in (ckpt, lat_ckpt, cond_ckpt, base_ckpt):
        assert load_checkpoint(path)[1].keys() == {"kind", "config", "mode"}, path.name
    assert load_checkpoint(vq_ckpt)[1].keys() == {"kind", "config"}

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


@pytest.mark.parametrize("methods,expected", [
    ("psychic", "unknown method 'psychic'"),
    ("baseline", "'baseline'"),
    ("diffusion= ", "'diffusion='"),
    ("majority=X", "'majority=X'"),
    ("majority,majority", "'majority'"),
])
def test_eval_rejects_unknown_method(tmp_path, capsys, methods, expected):
    data = tmp_path / "data"
    run(["gen-data", "--out", str(data), "--scenes", "1", "--dims", "8x8x4",
         "--classes", "4"])
    capsys.readouterr()
    assert run(["eval", "--methods", methods, "--data", str(data),
                "--out", str(tmp_path / "e")]) == 1
    out = capsys.readouterr().out
    assert out.startswith("error: ") and len(out.splitlines()) == 1
    assert expected in out
    assert not list(tmp_path.glob("e.*"))


def test_sample_rejects_truncated_checkpoint(tmp_path, capsys):
    config = dn.DenoiserConfig(num_classes=3, in_channels=3, hidden=(3, 4), num_steps=3)
    ckpt = tmp_path / "d.vxdn"
    dn.save_denoiser(ckpt, dn.init_params(config, 0), config)
    ckpt.write_bytes(ckpt.read_bytes()[:12])
    assert run(["sample", "--ckpt", str(ckpt), "--out", str(tmp_path / "s")]) == 1
    out = capsys.readouterr().out
    assert out.startswith("error: ") and len(out.splitlines()) == 1


def test_train_latent_writes_the_same_bytes_for_a_vqvae_at_any_path(tiny_data, tmp_path):
    paths = write_valid_models(tmp_path)
    moved = tmp_path / "elsewhere" / "copy.vxdn"
    moved.parent.mkdir()
    moved.write_bytes(paths["vqvae"].read_bytes())
    outs = []
    for i, vq_path in enumerate((paths["vqvae"], moved)):
        outs.append(tmp_path / f"lat{i}.vxdn")
        assert run(["train-latent", "--data", str(tiny_data), "--vqvae", str(vq_path),
                    "--out", str(outs[-1]), "--set", "epochs=1", "--set", "num_steps=3",
                    "--set", "hidden=3,4"]) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


@pytest.mark.parametrize("vq_classes,data_classes", [(6, 4), (4, 5)])
def test_train_latent_refuses_a_vqvae_of_another_class_count(tmp_path, capsys, vq_classes,
                                                              data_classes):
    data, vq_ckpt, out = tmp_path / "data", tmp_path / "vq.vxdn", tmp_path / "lat.vxdn"
    assert run(["gen-data", "--out", str(data), "--scenes", "2", "--dims", "8x8x4",
                "--classes", str(data_classes)]) == 0
    vq_config = vq.VQVAEConfig(num_classes=vq_classes, num_codes=4, code_dim=3, hidden=4)
    vq.save_vqvae(vq_ckpt, vq.VQVAETrainResult(vq.init_params(vq_config, 0), vq_config,
                                              np.ones(vq_classes)))
    capsys.readouterr()
    assert run(["train-latent", "--data", str(data), "--vqvae", str(vq_ckpt), "--out", str(out),
                "--set", "epochs=1", "--set", "num_steps=3", "--set", "hidden=3,4"]) == 1
    text = capsys.readouterr().out
    assert _one_error_line(text)
    assert f"vq.vxdn has {vq_classes} classes; --data has {data_classes}" in text
    assert not out.exists()


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
    assert not (tmp_path / "s").exists()


def test_sample_checks_the_mode_extra_against_vqvae(tmp_path, capsys):
    # K = N = 4, so only the mode tells an index model from a voxel model
    paths = write_valid_models(tmp_path)
    config = dn.DenoiserConfig(num_classes=4, in_channels=4, hidden=(3, 4), num_steps=3)
    params = dn.init_params(config, 0)
    vq_flag = ["--vqvae", str(paths["vqvae"])]
    for mode, flags in (("latent", []), ("unconditional", vq_flag), ("conditional", vq_flag),
                        ("conditional", [])):
        ckpt = tmp_path / f"{mode}.vxdn"
        dn.save_denoiser(ckpt, params, config, extra={"mode": mode})
        assert run(["sample", "--ckpt", str(ckpt), "--dims", "2x2x2",
                    "--out", str(tmp_path / "s")] + flags) == 1
        out = capsys.readouterr().out
        assert out.startswith("error: ") and len(out.splitlines()) == 1
        assert "--vqvae" in out and f"mode {mode}" in out
        assert not (tmp_path / "s").exists()
    # a latent file with its VQ-VAE, and an API file with or without one, still sample
    for name, flags in (("latent", vq_flag), ("denoiser", []), ("denoiser", vq_flag)):
        out = tmp_path / f"s_{name}_{len(flags)}"
        assert run(["sample", "--ckpt", str(tmp_path / f"{name}.vxdn"), "--dims", "2x2x2",
                    "--out", str(out)] + flags) == 0
        assert load_scene(out / "sample_0000.vxsc")[0].dims == ((8, 8, 4) if flags else (2, 2, 2))


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
    assert not (tmp_path / "s").exists()


def oversized_scene(path):
    """A 49-byte RLE scene that declares 2048^3 voxels: three runs cover them all."""
    header = MAGIC + struct.pack("<HH3IH", 1, FLAG_RLE, 2048, 2048, 2048, 1)
    runs = np.array([(0xFFFFFFFF, 0), (0xFFFFFFFF, 0), (2, 0)], dtype=RUN)
    path.write_bytes(header + bytes(3) + struct.pack("<H", 7) + b"nothing" + runs.tobytes())
    return path


def run_capped(argv, cwd):
    """The CLI in a child process whose address space is capped at 2 GiB, so a
    request for tens of GiB fails at once. Returns (exit code, stdout, stderr)."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (2 << 30, 2 << 30))

    env = dict(os.environ, OPENBLAS_NUM_THREADS="1",
               PYTHONPATH=str(Path(scenediff.__file__).parents[1]))
    done = subprocess.run([sys.executable, "-m", "scenediff.cli"] + argv, cwd=cwd, env=env,
                          preexec_fn=cap, capture_output=True, text=True, timeout=120)
    return done.returncode, done.stdout, done.stderr


@pytest.mark.parametrize("command", ["export", "complete", "sample", "gen-data"])
def test_oversized_input_prints_one_error_line_naming_the_size(tmp_path, command):
    models = write_valid_models(tmp_path)
    scene = oversized_scene(tmp_path / "huge.vxsc")
    assert len(scene.read_bytes()) == 49
    argv, size = {
        "export": (["export", "--scene", str(scene)], "8.00 GiB"),
        "complete": (["complete", "--ckpt", str(models["denoiser"]), "--condition",
                      str(scene)], "8.00 GiB"),
        "sample": (["sample", "--ckpt", str(models["denoiser"]),
                    "--dims", "2048x2048x2048"], "64.0 GiB"),
        "gen-data": (["gen-data", "--dims", "4096x4096x4096"], "64.0 GiB"),
    }[command]
    code, out, err = run_capped(argv + ["--out", str(tmp_path / "out")], tmp_path)
    assert code == 1 and err == ""
    assert out.startswith("error: out of memory") and len(out.splitlines()) == 1
    assert size in out
    assert not (tmp_path / "out").exists()
