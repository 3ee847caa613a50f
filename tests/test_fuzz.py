"""Seeded byte-mutation and truncation fuzzing of the file readers.

Whatever the bytes, a reader either loads the file or raises its own format
error, and its peak allocation stays small next to the file it reads.
"""

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
    path = tmp_path / "fuzzed"
    path.write_bytes(bytes(data))
    tracemalloc.start()
    try:
        read(path)
    except error:
        pass
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert peak < PEAK_BYTES
