"""Run configuration: dataclass defaults plus a flat key=value file format.

Every tolerance and grid parameter used by the numerical routines lives here
so that a run is reproducible from (config file, flag overrides, seed) alone.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError


@dataclass(frozen=True)
class RunConfig:
    # operator / basis
    nu: float = 0.5
    n_zeros: int = 2400
    zero_tol: float = 1e-12
    series_tol: float = 1e-10
    # quadrature
    quad_nodes_per_unit: int = 256
    halfline_radius: float = 8.0
    # time grids for suprema
    t_min: float = 1e-6
    t_max: float = 10.0
    t_ratio: float = 1.25
    # covers and cutoffs
    zeta: float = 0.02
    # atoms and decompositions
    cancel_tol: float = 1e-10
    reconstruct_tol: float = 1e-6
    cascade_depth_cap: int = 26
    atom_scale_max: int = 8
    # reproducibility / io
    seed: int = 20240
    out_dir: str = "out"

    def validate(self) -> "RunConfig":
        if not (self.nu > -0.5):
            raise ConfigError(f"nu must exceed -1/2, got {self.nu}")
        if self.n_zeros < 1:
            raise ConfigError("n_zeros must be positive")
        if self.zero_tol <= 0 or self.series_tol <= 0:
            raise ConfigError("tolerances must be positive")
        if self.quad_nodes_per_unit < 8:
            raise ConfigError("quad_nodes_per_unit must be at least 8")
        if self.halfline_radius <= 1.0:
            raise ConfigError("halfline_radius must exceed 1")
        if not (0 < self.t_min < self.t_max):
            raise ConfigError("need 0 < t_min < t_max")
        if not (1.0 < self.t_ratio <= 1.25):
            raise ConfigError("t_ratio must lie in (1, 1.25]")
        if not (0 < self.zeta <= 0.25):
            raise ConfigError("zeta must lie in (0, 1/4]")
        if self.cascade_depth_cap < 2 or self.cascade_depth_cap > 26:
            raise ConfigError("cascade_depth_cap out of range [2, 26]")
        if self.atom_scale_max < 1:
            raise ConfigError(f"atom_scale_max must be at least 1, got {self.atom_scale_max}")
        for key in ("cancel_tol", "reconstruct_tol"):
            if getattr(self, key) <= 0:
                raise ConfigError(f"{key} must be positive")
        return self


_FIELD_TYPES = {f.name: f.type for f in dataclasses.fields(RunConfig)}


def _cast(name: str, raw: str):
    kind = _FIELD_TYPES[name]
    if kind == "int":
        return int(raw)
    if kind == "float":
        return float(raw)
    return raw


def load_config(path: str | Path | None = None, overrides: dict | None = None) -> RunConfig:
    """Build a RunConfig from an optional key=value file plus overrides.

    Lines starting with '#' and blank lines are ignored.  Unknown keys are a
    configuration error (exit code 2 from the CLI)."""
    values: dict = {}
    if path is not None:
        try:
            text = Path(path).read_text()
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        for ln, line in enumerate(text.splitlines(), start=1):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{ln}: expected key=value, got {line!r}")
            key, _, raw = line.partition("=")
            key, raw = key.strip(), raw.strip()
            if key not in _FIELD_TYPES:
                raise ConfigError(f"{path}:{ln}: unknown key {key!r}")
            try:
                values[key] = _cast(key, raw)
            except ValueError as exc:
                raise ConfigError(f"{path}:{ln}: bad value for {key}: {exc}") from exc
    for key, val in (overrides or {}).items():
        if val is None:
            continue
        if key not in _FIELD_TYPES:
            raise ConfigError(f"unknown config key {key!r}")
        values[key] = val if not isinstance(val, str) else _cast(key, val)
    try:
        cfg = RunConfig(**values)
    except TypeError as exc:
        raise ConfigError(str(exc)) from exc
    return cfg.validate()
