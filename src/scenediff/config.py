"""Run configuration, and the one conversion of outside values into config fields."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import get_args, get_type_hints

from .errors import ConfigError
from .schedule import make_schedule

Triple = tuple[int, int, int]


@dataclass
class RunConfig:
    """Every knob a CLI run can turn, with desk-scale defaults; dims and K come from the data."""

    num_steps: int = 20                       # diffusion steps T
    schedule: str = "cosine"                  # or "linear"
    w0: float = 0.001                         # auxiliary loss weight
    lr: float = 0.001
    batch_size: int = 8
    epochs: int = 10
    sparsity_rate: float = 0.1                # condition synthesis retention
    hidden: tuple[int, int] = (16, 32)        # denoiser stage widths
    vq_num_codes: int = 64                    # codebook size N
    vq_code_dim: int = 8                      # code dimension d
    vq_hidden: int = 32
    vq_strides: tuple[Triple, Triple] = ((2, 2, 1), (2, 2, 2))
    vq_beta_commit: float = 0.25
    seed: int = 0

    def __post_init__(self):
        typed(self)
        for name in ("w0", "vq_beta_commit", "seed"):
            if getattr(self, name) < 0:
                raise ConfigError(f"bad value {getattr(self, name)} for {name!r} (expected >= 0)")
        try:
            make_schedule(self.schedule, self.num_steps)  # owns the schedule and num_steps rules
        except ValueError as exc:
            raise ConfigError(f"bad schedule: {exc}") from exc


field_types = functools.cache(get_type_hints)  # a config's field -> its resolved annotation


def convert(kind, value, where: str):
    """`value`, text or a JSON value, as the annotation `kind`: int, float, str or a
    fixed-length tuple of these ("4,6", "8x8x4", "2,2,1;2,2,2"). Ints refuse bools and
    fractions; numbers must be finite. A ConfigError names `where` the value came from."""
    args, parts = get_args(kind), value
    if args and isinstance(value, str):
        parts = value.split(";") if get_args(args[0]) else value.replace("x", ",").split(",")
    if args and isinstance(parts, (list, tuple)) and len(parts) == len(args):
        return tuple(convert(a, v, where) for a, v in zip(args, parts))
    if kind is str and isinstance(value, str):
        return value
    if kind in (int, float) and not isinstance(value, bool):
        try:
            out = kind(value)  # from text, or the same number as another type
            if math.isfinite(out) and (isinstance(value, str) or out == value):
                return out
        except (TypeError, ValueError, OverflowError):
            pass
    expected = {int: "a finite int", float: "a finite float", str: "text"}.get(kind, kind)
    raise ConfigError(f"bad value {value!r} for {where} (expected {expected})")


def typed(config):
    """Convert every field of a config dataclass in place by its annotation."""
    for name, kind in field_types(type(config)).items():
        object.__setattr__(config, name, convert(kind, getattr(config, name), repr(name)))


def from_values(cls, values: dict):
    """A `cls` config from values keyed by field name; `cls.__post_init__` converts them."""
    unknown = sorted(set(values) - field_types(cls).keys())
    if unknown:
        raise ConfigError(f"unknown key {unknown[0]!r}")
    return cls(**values)


def parse_config_text(text: str) -> dict:
    """Parse "key = value" lines with '#' comments into RunConfig values.
    Rejects unknown and duplicate keys, reporting the offending line."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in field_types(RunConfig):
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        values[key] = convert(field_types(RunConfig)[key], val, f"{key!r} on line {lineno}")
    return values


def load_run_config(path=None, overrides: dict | None = None, log=None) -> RunConfig:
    """File values override defaults, `overrides` beat the file; filled-in defaults are logged."""
    values = {}
    if path is not None:
        with open(path) as f:
            values = parse_config_text(f.read())
        for name, default in vars(RunConfig()).items():
            if log and name not in values:
                log(f"config: default {name} = {default}")
    return from_values(RunConfig, {**values, **(overrides or {})})
