"""Shared fixtures: small valid model checkpoints and malformed variants."""

import json
import struct
from dataclasses import asdict

import numpy as np
import pytest

from scenediff import denoiser as dn
from scenediff import vqvae as vq
from scenediff.checkpoint import save_checkpoint

DENOISER = dn.DenoiserConfig(num_classes=4, in_channels=4, hidden=(3, 4), num_steps=3)
VQVAE = vq.VQVAEConfig(num_classes=4, num_codes=4, code_dim=3, hidden=4)


def write_valid_models(out_dir):
    """A denoiser and a VQ-VAE file (latent-compatible: N = K = 4), by kind."""
    paths = {"denoiser": out_dir / "denoiser.vxdn", "vqvae": out_dir / "vqvae.vxdn"}
    dn.save_denoiser(paths["denoiser"], dn.init_params(DENOISER, 0), DENOISER,
                     extra={"schedule": "cosine"})
    vq.save_vqvae(paths["vqvae"], vq.VQVAETrainResult(vq.init_params(VQVAE, 0), VQVAE,
                                                      np.ones(4)))
    return paths


def _vqvae_missing_config_field(path):
    config = asdict(VQVAE)
    del config["num_classes"]
    params = dict(vq.init_params(VQVAE, 0), class_weights=np.ones(4))
    save_checkpoint(path, params, {"kind": "vqvae", "config": json.dumps(config)})
    return "vqvae"


def _denoiser_array_dropped(path):
    params = dn.init_params(DENOISER, 0)
    del params["temb_w1"]
    dn.save_denoiser(path, params, DENOISER)
    return "denoiser"


def _denoiser_array_reshaped(path):
    params = dn.init_params(DENOISER, 0)
    params["enc1_w"] = params["enc1_w"].reshape(-1, params["enc1_w"].shape[-1])
    dn.save_denoiser(path, params, DENOISER)
    return "denoiser"


def _vqvae_as_denoiser(path):
    vq.save_vqvae(path, vq.VQVAETrainResult(vq.init_params(VQVAE, 0), VQVAE, np.ones(4)))
    return "denoiser"


def _pre_json_format(path):
    """The metadata of files written before configs were stored as JSON."""
    meta = {f"config.{k}": str(v) for k, v in asdict(DENOISER).items()}
    meta.update(kind="denoiser", schedule="cosine", T="3", w0="0.001")
    save_checkpoint(path, dn.init_params(DENOISER, 0), meta)
    return "denoiser"


def _denoiser_config_set(name, **values):
    """A denoiser file whose JSON config holds `values`, which do not convert."""

    def write(path):
        config = json.dumps(dict(asdict(DENOISER), **values))
        save_checkpoint(path, dn.init_params(DENOISER, 0),
                        {"kind": "denoiser", "config": config, "schedule": "cosine"})
        return "denoiser"

    write.__name__ = f"denoiser_{name}"
    return write


def _denoiser_extra_array(name, shape):
    """A denoiser file with one more array appended by hand, whose header claims
    `shape` and whose payload is one float. numpy cannot build such arrays."""

    def write(path):
        dn.save_denoiser(path, dn.init_params(DENOISER, 0), DENOISER)
        data = bytearray(path.read_bytes())
        count_at = 10 + struct.unpack_from("<I", data, 6)[0]  # after magic, version, metadata
        struct.pack_into("<I", data, count_at, struct.unpack_from("<I", data, count_at)[0] + 1)
        data += struct.pack(f"<H5sB{len(shape)}If", 5, b"extra", len(shape), *shape, 1.0)
        path.write_bytes(bytes(data))
        return "denoiser"

    write.__name__ = f"denoiser_{name}"
    return write


def _denoiser_nan_weight(path):
    """A valid denoiser file whose last float32 is a signalling NaN, which the
    cast to float64 would flag."""
    dn.save_denoiser(path, dn.init_params(DENOISER, 0), DENOISER)
    path.write_bytes(path.read_bytes()[:-4] + struct.pack("<I", 0x7F800001))
    return "denoiser"


# a complete file whose array has more dims than numpy holds
DEEP_ARRAY = _denoiser_extra_array("array_70_dims", (1,) * 70)

MALFORMED = [_vqvae_missing_config_field, _denoiser_array_dropped, _denoiser_array_reshaped,
             _vqvae_as_denoiser, _pre_json_format,
             _denoiser_config_set("num_steps_null", num_steps=None),
             _denoiser_config_set("num_steps_fraction", num_steps=3.5),
             _denoiser_config_set("kernel_bool", kernel=True),
             _denoiser_config_set("hidden_fraction", hidden=[3.7, 4]),
             DEEP_ARRAY, _denoiser_extra_array("shape_overflows_int64", (2**32 - 1,) * 3),
             _denoiser_nan_weight]


@pytest.fixture(params=MALFORMED, ids=lambda f: f.__name__.lstrip("_"))
def malformed_checkpoint(request, tmp_path):
    """(path, the kind it is loaded as, valid model paths by kind)."""
    path = tmp_path / "bad.vxdn"
    loaded_as = request.param(path)
    return path, loaded_as, write_valid_models(tmp_path)
