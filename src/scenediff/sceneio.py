"""Scene file I/O: the "VXSC" binary container, PLY export, PPM slice export.

File layout (little-endian):
    magic "VXSC" | version u16 = 1 | flags u16 (bit0: RLE payload)
    dims 3 x u32 | K u16 | palette K x 3 u8
    names block: per class, u16 byte-length + UTF-8 bytes
    payload: raw u8 labels in x-fastest order, or RLE (count u32, label u8) pairs

`load_scene` reads only through `binfile.Reader`, which checks every read.
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .binfile import Reader
from .errors import SceneFormatError
from .grids import ClassTable, VoxelGrid

MAGIC = b"VXSC"
VERSION = 1
FLAG_RLE = 1
RUN = np.dtype([("count", "<u4"), ("label", "u1")])  # one packed 5-byte RLE pair
RUN_MAX = 0xFFFFFFFF  # longest run one pair holds


def rle_encode(labels: np.ndarray) -> bytes:
    """Run-length encode a flat u8 label array into (count u32, label u8) pairs."""
    if labels.size == 0:
        return b""
    starts = np.concatenate(([0], np.flatnonzero(np.diff(labels)) + 1))
    counts = np.diff(np.append(starts, labels.size))
    # u32 caps a run; split oversized runs (only possible on huge grids) into
    # full pieces followed by the remainder
    pieces = -(-counts // RUN_MAX)
    runs = np.empty(int(pieces.sum()), dtype=RUN)
    runs["count"] = RUN_MAX
    runs["count"][np.cumsum(pieces) - 1] = counts - (pieces - 1) * RUN_MAX
    runs["label"] = np.repeat(labels[starts], pieces)
    return runs.tobytes()


def rle_decode(payload: bytes, expected: int) -> np.ndarray:
    """Inverse of rle_encode, as int64 labels. The run counts are checked against
    `expected` before any run is expanded, so memory stays bounded by the declared dims."""
    if len(payload) % RUN.itemsize != 0:
        raise SceneFormatError("truncated RLE payload")
    runs = np.frombuffer(payload, dtype=RUN)
    total = int(runs["count"].sum(dtype=np.uint64))
    if total != expected:
        raise SceneFormatError(f"RLE payload decodes to {total} voxels, expected {expected}")
    return np.repeat(runs["label"].astype(np.int64), runs["count"])


def save_scene(grid: VoxelGrid, table: ClassTable, path, rle: bool = True):
    """Write a scene to disk; `rle` selects the run-length payload encoding."""
    k = table.num_classes
    if grid.labels.min() < 0 or grid.labels.max() >= min(k, 256):
        raise ValueError("labels must fit the class table and 8 bits")
    x, y, z = grid.dims
    flat = grid.labels.astype(np.uint8).reshape(-1, order="F")
    header = MAGIC + struct.pack("<HH3IH", VERSION, FLAG_RLE if rle else 0, x, y, z, k)
    palette = bytes(c for rgb in table.colors for c in rgb)
    names = b"".join(
        struct.pack("<H", len(n.encode())) + n.encode() for n in table.names
    )
    payload = rle_encode(flat) if rle else flat.tobytes()
    Path(path).write_bytes(header + palette + names + payload)


def load_scene(path) -> tuple[VoxelGrid, ClassTable]:
    r = Reader(Path(path).read_bytes(), SceneFormatError)
    r.header(MAGIC, VERSION)
    flags, x, y, z, k = r.unpack("<H3IH")
    if k == 0:
        raise SceneFormatError("empty class table")
    rgb = r.unpack(f"{3 * k}B")
    palette = tuple(zip(rgb[0::3], rgb[1::3], rgb[2::3]))
    names = tuple(r.text(*r.unpack("<H")) for _ in range(k))
    expected = x * y * z
    payload = r.rest()
    if flags & FLAG_RLE:
        flat = rle_decode(payload, expected)
    else:
        if len(payload) != expected:
            raise SceneFormatError(f"payload holds {len(payload)} voxels, expected {expected}")
        flat = np.frombuffer(payload, dtype=np.uint8)
    if flat.size and flat.max() >= k:
        raise SceneFormatError("label out of range for class table")
    labels = flat.astype(np.int64, copy=False).reshape((x, y, z), order="F")
    table = ClassTable(names, palette, np.ones(k))
    return VoxelGrid(labels), table


def export_ply(grid: VoxelGrid, table: ClassTable, path):
    """ASCII PLY point cloud: one colored vertex per occupied voxel center."""
    xs, ys, zs = np.nonzero(grid.labels != 0)
    labels = grid.labels[xs, ys, zs]
    lines = [
        "ply",
        "format ascii 1.0",
        f"element vertex {len(xs)}",
        "property float x",
        "property float y",
        "property float z",
        "property uchar red",
        "property uchar green",
        "property uchar blue",
        "end_header",
    ]
    colors = np.asarray(table.colors, dtype=np.int64)
    for x, y, z, lab in zip(xs, ys, zs, labels):
        r, g, b = colors[lab]
        lines.append(f"{x + 0.5} {y + 0.5} {z + 0.5} {r} {g} {b}")
    Path(path).write_text("\n".join(lines) + "\n")


def export_slices(grid: VoxelGrid, table: ClassTable, out_dir):
    """One binary PPM (P6) image per z-layer, colored by the class palette."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    colors = np.asarray(table.colors, dtype=np.uint8)
    x, y, z = grid.dims
    paths = []
    for zi in range(z):
        img = colors[grid.labels[:, :, zi]]  # (X, Y, 3)
        header = f"P6\n{y} {x}\n255\n".encode()
        p = out_dir / f"slice_{zi:03d}.ppm"
        p.write_bytes(header + img.tobytes())
        paths.append(p)
    return paths
