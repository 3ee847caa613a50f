"""Run configuration: documented defaults, "key = value" files, overrides."""

from __future__ import annotations

from dataclasses import dataclass, fields

from .errors import ConfigError


@dataclass
class RunConfig:
    """Every knob a CLI run can turn, with desk-scale defaults."""

    dims: tuple[int, int, int] = (16, 16, 4)  # voxel grid resolution
    num_classes: int = 5                      # K, free label included
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
    vq_strides: tuple[tuple[int, int, int], ...] = ((2, 2, 1), (2, 2, 2))
    vq_beta_commit: float = 0.25
    seed: int = 0


def _parse_int_tuple(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.replace("x", ",").split(",") if v.strip())


def _parse_strides(text: str) -> tuple[tuple[int, int, int], ...]:
    return tuple(_parse_int_tuple(part) for part in text.split(";") if part.strip())


_PARSERS = {
    "dims": _parse_int_tuple,
    "num_classes": int,
    "num_steps": int,
    "schedule": str,
    "w0": float,
    "lr": float,
    "batch_size": int,
    "epochs": int,
    "sparsity_rate": float,
    "hidden": _parse_int_tuple,
    "vq_num_codes": int,
    "vq_code_dim": int,
    "vq_hidden": int,
    "vq_strides": _parse_strides,
    "vq_beta_commit": float,
    "seed": int,
}


def parse_config_text(text: str) -> dict:
    """Parse "key = value" lines with '#' comments. Rejects unknown and
    duplicate keys, reporting the offending line."""
    values = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key, val = key.strip(), val.strip()
        if key not in _PARSERS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        try:
            values[key] = _PARSERS[key](val)
        except ValueError as exc:
            raise ConfigError(f"line {lineno}: bad value for {key!r}: {val!r}") from exc
    return values


def load_run_config(path=None, overrides: dict | None = None, log=None) -> RunConfig:
    """File values override defaults; explicit overrides beat the file.

    Defaults applied for keys missing from the file are logged.
    """
    values = {}
    if path is not None:
        with open(path) as f:
            values = parse_config_text(f.read())
        if log:
            defaults = RunConfig()
            for f_ in fields(RunConfig):
                if f_.name not in values:
                    log(f"config: default {f_.name} = {getattr(defaults, f_.name)}")
    if overrides:
        for key, val in overrides.items():
            if key not in _PARSERS:
                raise ConfigError(f"unknown config key {key!r}")
            values[key] = _PARSERS[key](val) if isinstance(val, str) else val
    return RunConfig(**values)

