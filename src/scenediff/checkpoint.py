"""Versioned "VXDN" checkpoint container: metadata lines + named float32 arrays.

Layout (little-endian):
    magic "VXDN" | version u16 = 1
    metadata: u32 byte-length, UTF-8 "key=value" lines
    u32 array count, then per array:
        u16 name length + name | u8 ndim | ndim x u32 shape | float32 payload
"""

from __future__ import annotations

import struct
from pathlib import Path

import numpy as np

from .errors import CheckpointError

MAGIC = b"VXDN"
VERSION = 1


def save_checkpoint(path, params: dict[str, np.ndarray], metadata: dict[str, str]):
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<H", VERSION)
    meta = "".join(f"{k}={v}\n" for k, v in sorted(metadata.items())).encode()
    buf += struct.pack("<I", len(meta)) + meta
    buf += struct.pack("<I", len(params))
    for name, arr in params.items():
        a = np.ascontiguousarray(arr, dtype=np.float32)
        nb = name.encode()
        buf += struct.pack("<H", len(nb)) + nb
        buf += struct.pack("<B", a.ndim)
        buf += struct.pack(f"<{a.ndim}I", *a.shape)
        buf += a.tobytes()
    Path(path).write_bytes(bytes(buf))


def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Returns (params as float64 arrays, metadata). Raises CheckpointError on
    malformed files."""
    data = Path(path).read_bytes()
    if len(data) < 6 or data[:4] != MAGIC:
        raise CheckpointError("bad magic")
    (version,) = struct.unpack_from("<H", data, 4)
    if version != VERSION:
        raise CheckpointError(f"unsupported version {version}")
    off = 6
    metadata = {}
    params = {}
    try:
        (mlen,) = struct.unpack_from("<I", data, off)
        off += 4
        for line in data[off : off + mlen].decode().splitlines():
            if line:
                k, _, v = line.partition("=")
                metadata[k] = v
        off += mlen
        (count,) = struct.unpack_from("<I", data, off)
        off += 4
        for _ in range(count):
            (nlen,) = struct.unpack_from("<H", data, off)
            off += 2
            name = data[off : off + nlen].decode()
            off += nlen
            (ndim,) = struct.unpack_from("<B", data, off)
            off += 1
            shape = struct.unpack_from(f"<{ndim}I", data, off)
            off += 4 * ndim
            size = int(np.prod(shape)) if ndim else 1
            arr = np.frombuffer(data, dtype="<f4", count=size, offset=off)
            off += 4 * size
            params[name] = arr.reshape(shape).astype(np.float64)
    except (struct.error, ValueError) as exc:
        raise CheckpointError("truncated checkpoint") from exc
    if off != len(data):
        raise CheckpointError("trailing bytes in checkpoint")
    return params, metadata
