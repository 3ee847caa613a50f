"""Seeded byte-mutation and truncation fuzzing of the file readers.

Whatever the bytes, a reader either loads the file or raises its own format
error, and its peak allocation stays small next to the file it reads.
"""

import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import write_valid_models
from scenediff import denoiser as dn
from scenediff import vqvae as vq
from scenediff.errors import CheckpointError, SceneFormatError
from scenediff.sceneio import load_scene, save_scene
from scenediff.toydata import ToySceneParams, generate_toy_scene, toy_class_table

READERS = {"scene_raw": (load_scene, SceneFormatError),
           "scene_rle": (load_scene, SceneFormatError),
           "denoiser": (dn.load_denoiser, CheckpointError),
           "vqvae": (vq.load_vqvae, CheckpointError)}
PEAK_BYTES = 1_000_000  # the valid files are all under 10 kB


@pytest.fixture(scope="module")
def valid_files(tmp_path_factory):
    """name -> the bytes of a valid file read by READERS[name]."""
    out = tmp_path_factory.mktemp("valid")
    scene = generate_toy_scene(ToySceneParams(dims=(8, 8, 4), num_classes=5), 0)
    paths = write_valid_models(out)
    for name, rle in (("scene_raw", False), ("scene_rle", True)):
        paths[name] = out / f"{name}.vxsc"
        save_scene(scene, toy_class_table(5), paths[name], rle=rle)
    return {name: paths[name].read_bytes() for name in READERS}


edits = st.lists(st.tuples(st.one_of(st.integers(0, 300), st.integers(0, 1 << 20)),
                           st.integers(0, 255)), max_size=4)


@settings(derandomize=True, database=None, max_examples=500, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(sorted(READERS)), edits=edits,
       cut=st.one_of(st.none(), st.integers(0, 1 << 20)))
def test_readers_raise_only_format_errors(valid_files, tmp_path, name, edits, cut):
    data = bytearray(valid_files[name])
    for pos, value in edits:
        data[pos % len(data)] = value
    if cut is not None:
        del data[cut % (len(data) + 1):]
    path = tmp_path / "fuzzed"
    path.write_bytes(bytes(data))
    read, error = READERS[name]
    tracemalloc.start()
    try:
        read(path)
    except error:
        pass
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert peak < PEAK_BYTES
