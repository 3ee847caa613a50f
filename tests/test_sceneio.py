import struct
import tracemalloc

import numpy as np
import pytest

from scenediff import sceneio
from scenediff.errors import SceneFormatError
from scenediff.grids import ClassTable, VoxelGrid
from scenediff.sceneio import export_ply, export_slices, load_scene, rle_decode, rle_encode, save_scene
from scenediff.toydata import ToySceneParams, generate_toy_scene, toy_class_table


def test_round_trip_raw_and_rle(tmp_path):
    rng = np.random.default_rng(0)
    table = toy_class_table(5)
    for trial in range(20):
        g = VoxelGrid(rng.integers(0, 5, size=(7, 5, 3)))
        for rle in (False, True):
            path = tmp_path / f"s{trial}_{rle}.vxsc"
            save_scene(g, table, path, rle=rle)
            loaded, lt = load_scene(path)
            assert loaded == g
            assert lt.names == table.names
            assert lt.colors == table.colors


def test_rle_and_raw_load_identically(tmp_path):
    rng = np.random.default_rng(1)
    table = toy_class_table(4)
    g = VoxelGrid(rng.integers(0, 4, size=(8, 8, 4)))
    save_scene(g, table, tmp_path / "raw.vxsc", rle=False)
    save_scene(g, table, tmp_path / "rle.vxsc", rle=True)
    a, _ = load_scene(tmp_path / "raw.vxsc")
    b, _ = load_scene(tmp_path / "rle.vxsc")
    assert a == b


def _reference_rle(flat, run_max=0xFFFFFFFF) -> bytes:
    """Run by run in plain Python; runs longer than `run_max` are split into
    full pieces followed by the remainder."""
    out = bytearray()
    i = 0
    while i < len(flat):
        j = i
        while j < len(flat) and flat[j] == flat[i]:
            j += 1
        run = j - i
        while run > run_max:
            out += struct.pack("<IB", run_max, int(flat[i]))
            run -= run_max
        out += struct.pack("<IB", run, int(flat[i]))
        i = j
    return bytes(out)


def test_rle_codec_oracle(monkeypatch):
    rng = np.random.default_rng(2)
    randoms = [rng.integers(0, k, size=rng.integers(1, 200)).astype(np.uint8)
               for k in (1, 2, 3, 256) for _ in range(12)]
    toys = [generate_toy_scene(ToySceneParams(dims=(16, 16, 4), num_classes=5), seed)
            .labels.astype(np.uint8).reshape(-1, order="F") for seed in range(4)]
    assert rle_encode(np.zeros(0, dtype=np.uint8)) == b""
    for flat in randoms + toys:
        payload = rle_encode(flat)
        assert payload == _reference_rle(flat)
        assert np.array_equal(rle_decode(payload, flat.size), flat)
    # a short cap exercises the splitting of runs too long for one u32 count
    monkeypatch.setattr(sceneio, "RUN_MAX", 3)
    for flat in randoms[:24] + toys[:1] + [np.full(10, 7, dtype=np.uint8)]:
        payload = rle_encode(flat)
        assert payload == _reference_rle(flat, 3)
        assert np.array_equal(rle_decode(payload, flat.size), flat)


def test_bad_magic(tmp_path):
    table = toy_class_table(4)
    path = tmp_path / "x.vxsc"
    save_scene(VoxelGrid(np.zeros((2, 2, 2), dtype=int)), table, path)
    data = bytearray(path.read_bytes())
    data[:4] = b"NOPE"
    path.write_bytes(bytes(data))
    with pytest.raises(SceneFormatError, match="magic"):
        load_scene(path)


def test_truncated_payload(tmp_path):
    table = toy_class_table(4)
    path = tmp_path / "x.vxsc"
    save_scene(VoxelGrid(np.arange(8).reshape(2, 2, 2) % 4), table, path, rle=False)
    path.write_bytes(path.read_bytes()[:-3])
    with pytest.raises(SceneFormatError):
        load_scene(path)


@pytest.mark.parametrize("rle", [False, True], ids=["raw", "rle"])
def test_every_truncation_raises_scene_format_error(tmp_path, rle):
    full = tmp_path / "full.vxsc"
    # the non-ASCII class name lets a cut fall inside a UTF-8 sequence
    table = ClassTable(("empty", "µ", "road"), ((0, 0, 0), (1, 2, 3), (4, 5, 6)))
    grid = VoxelGrid(np.arange(24).reshape(2, 3, 4) % 3)
    save_scene(grid, table, full, rle=rle)
    loaded, loaded_table = load_scene(full)
    assert loaded == grid and loaded_table.names == table.names
    data = full.read_bytes()
    cut = tmp_path / "cut.vxsc"
    for n in range(len(data)):
        cut.write_bytes(data[:n])
        with pytest.raises(SceneFormatError):
            load_scene(cut)


def test_label_out_of_table_range(tmp_path):
    path = tmp_path / "x.vxsc"
    save_scene(VoxelGrid(np.zeros((2, 2, 2), dtype=int)), toy_class_table(2), path)
    data = bytearray(path.read_bytes())
    data[-1] = 3  # last byte of the single RLE pair is the run label
    path.write_bytes(bytes(data))
    with pytest.raises(SceneFormatError):
        load_scene(path)


def test_empty_class_table_is_a_format_error(tmp_path):
    path = tmp_path / "x.vxsc"
    path.write_bytes(b"VXSC" + struct.pack("<HH3IH", 1, 0, 1, 1, 1, 0) + b"\x00")
    with pytest.raises(SceneFormatError, match="empty class table"):
        load_scene(path)


def test_non_utf8_class_name_is_a_format_error(tmp_path):
    path = tmp_path / "x.vxsc"
    save_scene(VoxelGrid(np.zeros((1, 1, 1), dtype=int)), toy_class_table(2), path)
    data = bytearray(path.read_bytes())
    names_at = 22 + 3 * 2 + 2  # header, palette, first name length
    data[names_at] = 0xFF  # never valid in UTF-8
    path.write_bytes(bytes(data))
    with pytest.raises(SceneFormatError, match="UTF-8"):
        load_scene(path)


def test_rle_claim_beyond_dims_is_rejected_before_allocation(tmp_path):
    path = tmp_path / "x.vxsc"
    save_scene(VoxelGrid(np.zeros((1, 1, 1), dtype=int)), toy_class_table(2), path)
    data = path.read_bytes()
    path.write_bytes(data[:-5] + struct.pack("<IB", 50_000_000, 0))
    tracemalloc.start()
    try:
        with pytest.raises(SceneFormatError, match="50000000"):
            load_scene(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


def test_export_ply_counts_and_palette(tmp_path):
    table = toy_class_table(11)
    empty = VoxelGrid(np.zeros((3, 3, 2), dtype=int))
    export_ply(empty, table, tmp_path / "empty.ply")
    text = (tmp_path / "empty.ply").read_text()
    assert "element vertex 0" in text

    labels = np.zeros((3, 3, 2), dtype=int)
    labels[0, 0, 0] = 4  # Vehicles
    labels[1, 1, 1] = 1
    export_ply(VoxelGrid(labels), table, tmp_path / "two.ply")
    lines = (tmp_path / "two.ply").read_text().splitlines()
    assert "element vertex 2" in lines[2]
    body = lines[lines.index("end_header") + 1:]
    assert len(body) == 2
    assert body[0].endswith("100 150 245")  # Vehicles palette entry


def test_export_slices_ppm(tmp_path):
    table = toy_class_table(4)
    g = VoxelGrid(np.zeros((4, 5, 3), dtype=int))
    paths = export_slices(g, table, tmp_path / "slices")
    assert len(paths) == 3
    data = paths[0].read_bytes()
    assert data.startswith(b"P6\n5 4\n255\n")
    assert len(data) - len(b"P6\n5 4\n255\n") == 4 * 5 * 3
