"""Versioned "VXDN" checkpoint container, and the one schema every model file uses.

Layout (little-endian):
    magic "VXDN" | version u16 = 1
    metadata: u32 byte-length, UTF-8 "key=value" lines
    u32 array count, then per array:
        u16 name length + name | u8 ndim | ndim x u32 shape | float32 payload

A model file (`save_model`/`load_model`) holds these metadata keys:
    kind    the model kind, "denoiser" or "vqvae"
    config  the model's config dataclass as one JSON object
    ...     free string extras (e.g. a diffusion model's schedule and w0)
and exactly the arrays, by name and shape, that its config implies. Files
written before configs were stored as JSON have no `config` key and are
rejected; retrain them. `load_checkpoint` reads only through `binfile.Reader`,
which checks every read.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import asdict
from pathlib import Path

import numpy as np

from .binfile import Reader
from .config import from_values
from .errors import CheckpointError

MAGIC = b"VXDN"
VERSION = 1


@np.errstate(over="ignore")  # a float32 overflow gives inf, which is refused below
def save_checkpoint(path, params: dict[str, np.ndarray], metadata: dict[str, str]):
    buf = bytearray()
    buf += MAGIC
    buf += struct.pack("<H", VERSION)
    meta = "".join(f"{k}={v}\n" for k, v in sorted(metadata.items())).encode()
    buf += struct.pack("<I", len(meta)) + meta
    buf += struct.pack("<I", len(params))
    for name, arr in params.items():
        a = np.ascontiguousarray(arr, dtype=np.float32)
        if not np.isfinite(a).all():
            raise CheckpointError(f"array {name!r} is not finite in float32; not saved")
        nb = name.encode()
        buf += struct.pack("<H", len(nb)) + nb
        buf += struct.pack("<B", a.ndim)
        buf += struct.pack(f"<{a.ndim}I", *a.shape)
        buf += a.data
    Path(path).write_bytes(bytes(buf))


@np.errstate(over="ignore", invalid="ignore")  # the sum of squares may overflow or meet a NaN
def load_checkpoint(path) -> tuple[dict[str, np.ndarray], dict[str, str]]:
    """Returns (params as float64 arrays, metadata). Raises CheckpointError on
    malformed files, and on arrays that are not finite, which saving refuses too."""
    r = Reader(Path(path).read_bytes(), CheckpointError)
    r.header(MAGIC, VERSION)
    (mlen,) = r.unpack("<I")
    metadata = {}
    for line in r.text(mlen).splitlines():
        if line:
            k, _, v = line.partition("=")
            metadata[k] = v
    (count,) = r.unpack("<I")
    params = {}
    for _ in range(count):
        name = r.text(*r.unpack("<H"))
        (ndim,) = r.unpack("B")
        shape = r.unpack(f"<{ndim}I")
        arr = np.frombuffer(r.take(4 * math.prod(shape)), dtype="<f4")
        # A sum of squares is finite only if every value is. When it is not (a value
        # that is not finite, or an overflow from large ones), check each value.
        if not math.isfinite(np.vdot(arr, arr)) and not np.isfinite(arr).all():
            raise CheckpointError(f"array {name!r} is not finite")
        try:
            params[name] = arr.reshape(shape).astype(np.float64)
        except ValueError as exc:  # more dims, or a larger size, than numpy can hold
            raise CheckpointError(f"array {name!r}: {exc}") from exc
    if r.rest():
        raise CheckpointError("trailing bytes in checkpoint")
    return params, metadata


def save_model(path, kind: str, params: dict[str, np.ndarray], config,
               extra: dict | None = None):
    """Write a model file: `kind`, `config` as JSON, extras as strings."""
    meta = {k: str(v) for k, v in (extra or {}).items()}
    meta.update(kind=kind, config=json.dumps(asdict(config)))
    save_checkpoint(path, params, meta)


def load_model(path, kind: str, config_cls, param_shapes):
    """Read a model file of the given kind. Returns (params, config, metadata).

    The config is rebuilt from its JSON by `config.from_values`, and the arrays
    must have exactly the names and shapes that `param_shapes(config)` gives.
    Every failure raises CheckpointError.
    """
    params, meta = load_checkpoint(path)
    if meta.get("kind") != kind:
        raise CheckpointError(f"not a {kind} checkpoint (kind {meta.get('kind')!r})")
    if "config" not in meta:
        raise CheckpointError(f"{kind} checkpoint has no JSON config; retrain it")
    try:
        config = from_values(config_cls, json.loads(meta["config"]))
        expected = param_shapes(config)
    except (TypeError, ValueError) as exc:
        raise CheckpointError(f"bad {kind} config: {exc}") from exc
    shapes = {name: a.shape for name, a in params.items()}
    if shapes != expected:
        bad = sorted(n for n in shapes.keys() | expected.keys() if shapes.get(n) != expected.get(n))
        raise CheckpointError(f"{kind} arrays do not match its config: {', '.join(bad)}")
    return params, config, meta
