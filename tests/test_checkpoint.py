import json

import numpy as np
import pytest

from conftest import DEEP_ARRAY
from scenediff import denoiser as dn
from scenediff import vqvae as vq
from scenediff.checkpoint import load_checkpoint, save_checkpoint
from scenediff.errors import CheckpointError


def test_every_truncation_raises_checkpoint_error(tmp_path):
    full = tmp_path / "full.vxdn"
    # the non-ASCII metadata value lets a cut fall inside a UTF-8 sequence
    save_checkpoint(full, {"w": np.arange(6.0).reshape(2, 3), "b": np.ones(2)},
                    {"kind": "denoiser", "note": "µ"})
    params, meta = load_checkpoint(full)
    assert meta == {"kind": "denoiser", "note": "µ"}
    assert np.array_equal(params["w"], np.arange(6.0).reshape(2, 3))
    data = full.read_bytes()
    cut = tmp_path / "cut.vxdn"
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        with pytest.raises(CheckpointError):
            load_checkpoint(cut)


def test_malformed_model_file_raises_checkpoint_error(malformed_checkpoint):
    path, loaded_as, valid = malformed_checkpoint
    load = {"denoiser": dn.load_denoiser, "vqvae": vq.load_vqvae}[loaded_as]
    load(valid[loaded_as])
    with pytest.raises(CheckpointError):
        load(path)


def test_array_numpy_cannot_hold_is_named_not_called_truncated(tmp_path):
    path = tmp_path / "deep.vxdn"
    DEEP_ARRAY(path)
    with pytest.raises(CheckpointError, match="'extra'") as caught:
        load_checkpoint(path)
    assert "truncated" not in str(caught.value)


def test_model_file_metadata_is_kind_json_config_and_extras(tmp_path):
    config = dn.DenoiserConfig(num_classes=3, in_channels=4, hidden=[5, 7], num_steps=10)
    assert config.hidden == (5, 7)
    path = tmp_path / "d.vxdn"
    dn.save_denoiser(path, dn.init_params(config, 0), config, extra={"w0": 0.01})
    _, meta = load_checkpoint(path)
    assert meta.keys() == {"kind", "config", "w0"}
    assert meta["kind"] == "denoiser" and meta["w0"] == "0.01"
    assert json.loads(meta["config"])["hidden"] == [5, 7]
    assert dn.load_denoiser(path, expected_config=config)[1] == config


@pytest.mark.parametrize("bad", [np.nan, np.inf, 1e40])  # 1e40 overflows float32
def test_save_refuses_arrays_not_finite_in_float32(tmp_path, bad):
    path = tmp_path / "x.vxdn"
    with pytest.raises(CheckpointError, match="'w'"):
        save_checkpoint(path, {"b": np.ones(2), "w": np.array([1.0, bad])}, {})
    assert not path.exists()
