import numpy as np
import pytest

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
