"""Flat-key run configuration: JSON file, CLI overrides, typed validation.

The schema is one flat namespace (no nesting).  Each subcommand accepts, as
flags and in a config file alike, exactly the keys it reads.  Unknown keys,
unread keys and out-of-range values raise ConfigurationError naming the key.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, fields, replace

from .errors import ConfigurationError

__all__ = ["RunConfig", "load_config"]

_TWO_PI = 2.0 * math.pi


def _float_list(text):
    if isinstance(text, (list, tuple)):
        return tuple(float(v) for v in text)
    try:
        return tuple(float(tok) for tok in str(text).split(",") if tok.strip())
    except ValueError:
        raise ConfigurationError(f"expected a comma-separated number list, got {text!r}")


@dataclass(frozen=True)
class RunConfig:
    # grid
    nx: int = 64
    ny: int = 0          # 0 means: same as nx
    lx: float = _TWO_PI
    ly: float = 0.0      # 0 means: same as lx
    form: str = "original"
    # initial condition
    preset: str = "gaussian"
    amplitude: float = 1.0
    sigma: float = 1.0
    jx: int = 1
    jy: int = 0
    kmax: float = 0.0    # 0 means: the grid's band_radius
    envelope: float = 0.0
    norm: str = ""
    norm_s: float = 0.0
    seed: int = 0
    # time stepping
    t_final: float = 1.0
    dt: float = 1e-3
    sample_every: int = 1
    # I-method
    s: float = 0.9
    n_list: tuple = (4.0, 8.0, 16.0, 32.0)
    delta: float = 0.1
    t_target: float = 1.0
    max_windows: int = 12
    n_block: float = 0.0  # 0 means: derive from t_target
    # picard
    horizon: float = 0.0  # 0 means: use the fitted horizon rule
    n_iter: int = 8
    num_nodes: int = 65
    c0: float = 1.0
    # probes
    estimate: str = "strichartz"
    q: float = 6.0
    r: float = 4.0
    n1: float = 4.0
    n2: float = 16.0
    n3: float = 4.0
    samples: int = 32
    span: float = 1.0
    frames: int = 33
    t_grid: tuple = (0.25, 1.0, 4.0)
    l_grid: tuple = (0.25, 1.0, 4.0)
    t_length: float = 0.25
    num_steps: int = 0    # 0 means: derive from the shells
    # norms subcommand
    input: str = ""
    norm_name: str = "sobolev"
    p: float = 2.0
    # output
    output_dir: str = ""
    dump_frames: bool = False

    def resolved_ny(self) -> int:
        return self.ny if self.ny else self.nx

    def resolved_ly(self) -> float:
        return self.ly if self.ly else self.lx

    def to_dict(self) -> dict:
        out = {}
        for f in fields(self):
            val = getattr(self, f.name)
            out[f.name] = list(val) if isinstance(val, tuple) else val
        return out


_LIST_KEYS = {"n_list", "t_grid", "l_grid"}
_POSITIVE_KEYS = {"lx", "dt", "t_final", "delta", "t_target", "q", "r",
                  "n1", "n2", "n3", "span", "t_length", "c0", "sigma",
                  "s", "p"}
# zero is a seed, and for the rest a documented sentinel ("use the derived value")
_NONNEGATIVE_KEYS = {"ly", "horizon", "kmax", "envelope", "n_block", "num_steps", "seed"}
_INFINITE_KEYS = {"q", "r", "p"}  # inf is a documented Lebesgue endpoint


def _coerce(key: str, value, target_type):
    if key in _LIST_KEYS:
        return _float_list(value)
    try:
        if target_type is bool:
            if isinstance(value, bool):
                return value
            text = str(value).lower()
            if text in ("true", "1", "yes"):
                return True
            if text in ("false", "0", "no"):
                return False
            raise ValueError(value)
        if isinstance(value, bool) or target_type is int and isinstance(value, float) and value % 1:
            raise ValueError(value)  # int() and float() take True, and int() truncates 2.5
        return target_type(value)
    except (TypeError, ValueError, OverflowError):
        raise ConfigurationError(
            f"config key {key!r}: cannot interpret {value!r} as {target_type.__name__}")


def load_config(path: str | None = None, overrides: dict | None = None,
                subcommand: str = "", keys=None) -> RunConfig:
    """Defaults, then file keys, then explicit overrides; all validated.  A key
    outside ``keys`` (when given) is an error: ``subcommand`` does not read it."""
    config = RunConfig()
    merged: dict = {}
    if path:
        try:
            with open(path) as fh:
                file_data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigurationError(f"config file {path}: invalid JSON ({exc})")
        if not isinstance(file_data, dict):
            raise ConfigurationError(f"config file {path}: expected a flat JSON object")
        merged.update(file_data)
    if overrides:
        merged.update({k: v for k, v in overrides.items() if v is not None})

    known = {f.name: f.type for f in fields(RunConfig)}
    types = {f.name: type(getattr(config, f.name)) for f in fields(RunConfig)}
    updates = {}
    for key, value in merged.items():
        if key not in known:
            raise ConfigurationError(f"unknown config key {key!r}")
        if keys is not None and key not in keys:
            raise ConfigurationError(f"config key {key!r}: not read by {subcommand}")
        updates[key] = _coerce(key, value, types[key])
    config = replace(config, **updates)
    _validate(config, set(updates))
    return config


def _validate(config: RunConfig, explicit: set) -> None:
    for key in sorted(explicit):
        val = getattr(config, key)
        for v in val if key in _LIST_KEYS else (val,):
            if isinstance(v, float) and (math.isnan(v) or (
                    math.isinf(v) and key not in _INFINITE_KEYS)):
                raise ConfigurationError(f"config key {key!r}: must be finite, got {v}")
    if config.nx < 8:
        raise ConfigurationError(f"config key 'nx': need at least 8, got {config.nx}")
    for key in _POSITIVE_KEYS:
        val = getattr(config, key)
        if key in explicit and val <= 0:
            raise ConfigurationError(f"config key {key!r}: must be positive, got {val}")
    for key in _NONNEGATIVE_KEYS:
        val = getattr(config, key)
        if key in explicit and val < 0:
            raise ConfigurationError(f"config key {key!r}: must be nonnegative, got {val}")
    if config.form not in ("original", "symmetrized"):
        raise ConfigurationError(
            f"config key 'form': must be 'original' or 'symmetrized', got {config.form!r}")
    for key in ("sample_every", "samples"):
        if getattr(config, key) < 1:
            raise ConfigurationError(f"config key {key!r}: must be >= 1")
    for key in sorted(_LIST_KEYS):
        if not getattr(config, key):
            raise ConfigurationError(f"config key {key!r}: must not be empty")
