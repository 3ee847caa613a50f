"""Seeded byte-mutation and truncation fuzzing of the file readers.

Whatever the bytes, a reader either loads the file or raises its own format
error, and its peak allocation stays small next to the file it reads.
"""

import struct
import tracemalloc

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from conftest import MALFORMED, write_valid_models
from scenediff import denoiser as dn
from scenediff import vqvae as vq
from scenediff.errors import CheckpointError, SceneFormatError
from scenediff.sceneio import load_scene, save_scene
from scenediff.toydata import ToySceneParams, generate_toy_scene, toy_class_table

SCENES = {"scene_raw": False, "scene_rle": True}  # name -> RLE payload
MODELS = {"denoiser": dn.load_denoiser, "vqvae": vq.load_vqvae}
NAMES = sorted([*SCENES, *MODELS, *(write.__name__ for write in MALFORMED)])
PEAK_BYTES = 1_000_000  # the files are all under 10 kB
DIMS_AT = 8  # the three u32 dims of a scene file follow magic, version and flags


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    """name -> (the bytes of a valid or malformed file, its reader, the
    reader's format error)."""
    out = tmp_path_factory.mktemp("files")
    files = {kind: (path.read_bytes(), MODELS[kind], CheckpointError)
             for kind, path in write_valid_models(out).items()}
    scene = generate_toy_scene(ToySceneParams(dims=(8, 8, 4), num_classes=5), 0)
    for name, rle in SCENES.items():
        save_scene(scene, toy_class_table(5), out / name, rle=rle)
        files[name] = ((out / name).read_bytes(), load_scene, SceneFormatError)
    for write in MALFORMED:
        kind = write(out / write.__name__)
        files[write.__name__] = ((out / write.__name__).read_bytes(), MODELS[kind],
                                 CheckpointError)
    return files


edits = st.lists(st.tuples(st.one_of(st.integers(0, 300), st.integers(0, 1 << 20)),
                           st.integers(0, 255)), max_size=4)


# ~125 examples per file, as many as each of the four valid files had alone
@settings(derandomize=True, database=None, max_examples=125 * len(NAMES), deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(NAMES), edits=edits,
       cut=st.one_of(st.none(), st.integers(0, 1 << 20)))
def test_readers_raise_only_format_errors(files, tmp_path, name, edits, cut):
    data, read, error = files[name]
    data = bytearray(data)
    for pos, value in edits:
        data[pos % len(data)] = value
    if cut is not None:
        del data[cut % (len(data) + 1):]
    assert read_peak(tmp_path / "fuzzed", bytes(data), read, error)[1] < PEAK_BYTES


def read_peak(path, data: bytes, read, error):
    """Write `data` to `path` and read it back: (the result, or None if the
    reader raised `error`; the reader's peak traced allocation in bytes)."""
    path.write_bytes(data)
    tracemalloc.start()
    try:
        return read(path), tracemalloc.get_traced_memory()[1]
    except error:
        return None, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


u32 = st.integers(0, 2**32 - 1)
near_2_16 = st.integers(2**16 - 2, 2**16 + 2)
dims = st.one_of(
    st.tuples(u32, u32, u32),
    st.tuples(*[st.integers(0, 16)] * 3),  # around the 256 voxels the files hold
    st.sampled_from([(8, 8, 4), (16, 16, 1), (256, 1, 1), (2, 8, 16)]),  # exactly 256
    st.tuples(near_2_16, near_2_16, st.sampled_from([1, 2])),  # ~2^32 and ~2^33 voxels
    st.tuples(st.integers(2**32 - 3, 2**32 - 1), st.sampled_from([1, 2]), st.just(1)),
).flatmap(st.permutations)


@settings(derandomize=True, database=None, max_examples=250, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(name=st.sampled_from(sorted(SCENES)), dims=dims)
def test_scene_readers_hold_memory_to_the_file_whatever_dims_it_declares(files, tmp_path,
                                                                          name, dims):
    data, read, error = files[name]
    data = bytearray(data)
    data[DIMS_AT:DIMS_AT + 12] = struct.pack("<3I", *dims)
    loaded, peak = read_peak(tmp_path / "fuzzed", bytes(data), read, error)
    assert peak < PEAK_BYTES
    if loaded is not None:
        assert loaded[0].dims == tuple(dims) and loaded[0].num_voxels == 8 * 8 * 4
