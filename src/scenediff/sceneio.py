"""Scene file I/O: the "VXSC" binary container, PLY export, PPM slice export.

File layout (little-endian):
    magic "VXSC" | version u16 = 1 | flags u16 (bit0: RLE payload)
    dims 3 x u32 | K u16 | palette K x 3 u8
    names block: per class, u16 byte-length + UTF-8 bytes
    payload: raw u8 labels in x-fastest order, or RLE (count u32, label u8) pairs
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import SceneFormatError
from .grids import ClassTable, VoxelGrid

MAGIC = b"VXSC"
VERSION = 1
FLAG_RLE = 1


def rle_encode(labels: np.ndarray) -> bytes:
    """Run-length encode a flat u8 label array into (count u32, label u8) pairs."""
    out = bytearray()
    if labels.size == 0:
        return bytes(out)
    boundaries = np.flatnonzero(np.diff(labels)) + 1
    starts = np.concatenate(([0], boundaries))
    ends = np.concatenate((boundaries, [labels.size]))
    for s, e in zip(starts, ends):
        run = int(e - s)
        # u32 caps a run; split oversized runs (only possible on huge grids)
        while run > 0xFFFFFFFF:
            out += struct.pack("<IB", 0xFFFFFFFF, int(labels[s]))
            run -= 0xFFFFFFFF
        out += struct.pack("<IB", run, int(labels[s]))
    return bytes(out)


def rle_decode(payload: bytes, expected: int) -> np.ndarray:
    """Inverse of rle_encode. The run counts are checked against `expected`
    before any run is expanded, so memory stays bounded by the declared dims."""
    if len(payload) % 5 != 0:
        raise SceneFormatError("truncated RLE payload")
    runs = np.frombuffer(payload, dtype=[("count", "<u4"), ("label", "u1")])
    total = int(runs["count"].sum(dtype=np.uint64))
    if total != expected:
        raise SceneFormatError(f"RLE payload decodes to {total} voxels, expected {expected}")
    return np.repeat(runs["label"], runs["count"])


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
    data = Path(path).read_bytes()
    if len(data) < 22 or data[:4] != MAGIC:
        raise SceneFormatError("bad magic")
    version, flags, x, y, z, k = struct.unpack_from("<HH3IH", data, 4)
    if version != VERSION:
        raise SceneFormatError(f"unsupported version {version}")
    off = 22
    if len(data) < off + 3 * k:
        raise SceneFormatError("truncated palette")
    palette = tuple(
        (data[off + 3 * i], data[off + 3 * i + 1], data[off + 3 * i + 2]) for i in range(k)
    )
    off += 3 * k
    names = []
    for _ in range(k):
        if len(data) < off + 2:
            raise SceneFormatError("truncated names block")
        (n,) = struct.unpack_from("<H", data, off)
        off += 2
        if len(data) < off + n:
            raise SceneFormatError("truncated names block")
        names.append(data[off : off + n].decode())
        off += n
    expected = x * y * z
    payload = data[off:]
    if flags & FLAG_RLE:
        flat = rle_decode(payload, expected)
    else:
        if len(payload) != expected:
            raise SceneFormatError(f"payload holds {len(payload)} voxels, expected {expected}")
        flat = np.frombuffer(payload, dtype=np.uint8)
    if flat.size and flat.max() >= k:
        raise SceneFormatError("label out of range for class table")
    labels = flat.astype(np.int64).reshape((x, y, z), order="F")
    table = ClassTable(tuple(names), palette, np.ones(k))
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
