"""Run configuration, and the one conversion of outside values into config fields.

A field's annotation is its rule: a type, and a number's inclusive bounds (`Annotated[int, 1]`
or `Annotated[float, low, high]`). `convert` applies it to files, `--set`, CLI flags, checkpoint
JSON and API-built configs; a `__post_init__` adds only rules that relate fields to each other."""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Annotated, get_args, get_origin, get_type_hints

from .errors import ConfigError

Size = Annotated[int, 1]  # a count, width or extent
Triple = tuple[Size, Size, Size]
Seed = Annotated[int, 0]
NonNegative = Annotated[float, 0]  # a loss weight or learning rate
Rate = Annotated[float, math.ulp(0.0), 1.0]  # a retention rate, in (0, 1]


field_types = functools.cache(functools.partial(get_type_hints, include_extras=True))


@functools.cache
def _rule(kind):  # (type, (low, high), item annotations), resolved once per annotation
    if get_origin(kind) is Annotated:
        kind, low, high = (*get_args(kind), math.inf)[:3]  # no upper bound unless given
        return kind, (low, high), ()
    return get_origin(kind) or kind, (-math.inf, math.inf), get_args(kind)


def convert(kind, value, where: str):
    """`value`, text or a JSON value, as the annotation `kind`: int, float, `Annotated[int or
    float, low]` or `[…, low, high]`, or a fixed-length tuple of these ("4,6", "8x8x4",
    "2,2,1;2,2,2"). Ints refuse bools and fractions; numbers must be finite and within their
    bounds, which are inclusive. A ConfigError names `where` the value came from."""
    (kind, (low, high), items), parts = _rule(kind), value
    if items and isinstance(value, str):
        parts = value.replace("x", ",").split(";" if get_origin(items[0]) is tuple else ",")
    if items and isinstance(parts, (list, tuple)) and len(parts) == len(items):
        return tuple(convert(a, v, where) for a, v in zip(items, parts))
    if kind in (int, float) and not isinstance(value, bool):
        try:
            out = kind(value)  # from text, or the same number as another type
            if (math.isfinite(out) and (isinstance(value, str) or out == value)
                    and low <= out <= high):
                return out
        except (TypeError, ValueError, OverflowError):
            pass
    expected = {int: "a finite int", float: "a finite float",
                tuple: f"{len(items)} values"}[kind] + (f" >= {low}" if low > -math.inf else "")
    expected += f" and <= {high}" if high < math.inf else ""
    raise ConfigError(f"bad value {value!r} for {where} (expected {expected})")


def typed(config):
    """Convert every field of a config dataclass in place by its annotation."""
    for name, kind in field_types(type(config)).items():
        object.__setattr__(config, name, convert(kind, getattr(config, name), repr(name)))


@dataclass
class RunConfig:
    """Every knob a CLI run can turn, with desk-scale defaults; dims and K come from the data."""

    num_steps: Size = 20                      # diffusion steps T of the cosine schedule
    w0: NonNegative = 0.001                   # auxiliary loss weight
    lr: NonNegative = 0.001
    batch_size: Size = 8
    epochs: Size = 10
    sparsity_rate: Rate = 0.1                 # condition synthesis retention
    hidden: tuple[Size, Size] = (16, 32)      # denoiser stage widths
    vq_num_codes: Annotated[int, 2] = 64      # codebook size N
    vq_code_dim: Size = 8                     # code dimension d
    vq_hidden: Size = 32
    vq_strides: tuple[Triple, Triple] = ((2, 2, 1), (2, 2, 2))
    seed: Seed = 0

    __post_init__ = typed  # every rule is on an annotation


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
