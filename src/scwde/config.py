"""Run configuration: YAML ingestion, validation, and grid expansion."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any, Optional

import yaml

from .poly import PolySpec
from .scalar import UncoupledEnsemble, map_threshold

PRESETS = ("table1", "fig2", "fig3", "fig4")

# Sentinel for an epsilon grid that stops just below the MAP threshold,
# resolved per ensemble at expansion time.
MAP_STOP = "map_threshold"

# Largest epsilon grid a config may expand to; every point is a full T search.
MAX_EPSILON_POINTS = 10_000


class ConfigError(ValueError):
    """Invalid or missing run-configuration data."""


@dataclass(frozen=True)
class SuccessConfig:
    policy: str = "average"
    threshold: float = 1e-6

    def __post_init__(self) -> None:
        if self.policy not in ("average", "max"):
            raise ConfigError(f"unknown success policy {self.policy!r}")
        if self.threshold <= 0:
            raise ConfigError("success threshold must be positive")


@dataclass(frozen=True)
class RecordConfig:
    policy: str = "per-window"
    windows: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if self.policy != "per-window":
            raise ConfigError(f"record policy must be 'per-window', got {self.policy!r}")


@dataclass(frozen=True)
class RunConfig:
    """One run request: ensembles, coupling, channel grid, window grid.

    ``epsilon_grid`` entries may be floats; a stop value of
    ``map_threshold`` is resolved per ensemble when expanding.
    """

    ensembles: tuple[UncoupledEnsemble, ...]
    N: int = 100
    w: int = 1
    epsilon: Optional[float] = None
    epsilon_grid: Optional[dict] = None
    W: tuple[int, ...] = ()
    T: Optional[int] = None  # None means "auto" (search for the minimum)
    T_max: int = 200
    T_first: Optional[int] = None
    alpha: float = 1.0
    schedule: str = "literal"
    success: SuccessConfig = field(default_factory=SuccessConfig)
    record: RecordConfig = field(default_factory=RecordConfig)
    steady_tol: float = 1e-9
    grid_n: int = 10_001
    bounds: bool = True

    def __post_init__(self) -> None:
        if not self.ensembles:
            raise ConfigError("at least one ensemble is required")
        if self.schedule not in ("literal", "extended"):
            raise ConfigError(f"unknown schedule variant {self.schedule!r}")
        if not 1.0 <= self.alpha <= 2.0:
            raise ConfigError("alpha must lie in [1, 2]")
        if self.epsilon is None and self.epsilon_grid is None:
            raise ConfigError("epsilon (or an epsilon grid) is required")
        if self.epsilon is not None and not 0.0 <= self.epsilon <= 1.0:
            raise ConfigError("epsilon must lie in [0, 1]")
        if self.N < 1 or self.w < 1:
            raise ConfigError("N and w must be >= 1")
        if any(not 1 <= W <= self.N for W in self.W):
            raise ConfigError(f"window sizes {self.W} must lie in 1..N={self.N}")
        for key in ("T", "T_first"):
            if getattr(self, key) is not None and getattr(self, key) < 1:
                raise ConfigError(f"{key} must be >= 1")
        if self.T is None and self.T_max < 1:
            raise ConfigError("T_max must be >= 1")
        if self.grid_n < 1000:
            raise ConfigError("grid_n must be >= 1000 for reliable bracketing")
        if not isinstance(self.bounds, bool):
            raise ConfigError(f"bounds must be true or false, got {self.bounds!r}")

    def epsilons(self, ens: UncoupledEnsemble) -> tuple[float, ...]:
        """Expand the channel grid for one ensemble (ascending, within [0, 1])."""
        if self.epsilon_grid is None:
            return (float(self.epsilon),)
        g = self.epsilon_grid
        start, step = float(g["start"]), float(g["step"])
        stop = g["stop"]
        if stop == MAP_STOP:
            stop_val = map_threshold(ens)
            inclusive = False
        else:
            stop_val = float(stop)
            inclusive = True
        if not step > 0:
            raise ConfigError("epsilon grid step must be positive")
        if not 0.0 <= start <= 1.0 or not 0.0 <= stop_val <= 1.0:
            raise ConfigError("epsilon grid must stay within [0, 1]")
        if stop_val < start:
            raise ConfigError("epsilon grid must ascend")
        steps = (stop_val - start) / step + 1e-12
        if steps >= MAX_EPSILON_POINTS:
            raise ConfigError(
                f"epsilon grid has {steps + 1:.4g} points, more than {MAX_EPSILON_POINTS}"
            )
        n = int(math.floor(steps)) + 1
        vals = [start + i * step for i in range(n)]
        if not inclusive:
            vals = [v for v in vals if v < stop_val - 1e-15]
        return tuple(round(v, 12) for v in vals)


def _parse_ensembles(raw: dict) -> tuple[UncoupledEnsemble, ...]:
    if "ensemble" in raw and "ensembles" in raw:
        raise ConfigError("give either 'ensemble' or 'ensembles', not both")
    items: list[Any]
    if "ensemble" in raw:
        items = [raw["ensemble"]]
    elif "ensembles" in raw:
        items = list(raw["ensembles"])
    else:
        raise ConfigError("missing 'ensemble' section")
    out = []
    for item in items:
        try:
            L: PolySpec = item["L"]
            R: PolySpec = item["R"]
        except (TypeError, KeyError):
            raise ConfigError(f"ensemble entry needs L and R, got {item!r}")
        try:
            out.append(UncoupledEnsemble.from_specs(L, R))
        except ValueError as exc:
            raise ConfigError(f"bad ensemble {item!r}: {exc}")
    return tuple(out)


def _integer(key: str, value: Any) -> int:
    """An integer config value; YAML booleans and fractional floats are rejected."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _parse_window_sizes(raw: dict) -> tuple[int, ...]:
    if "W" not in raw:
        return ()
    W = raw["W"]
    if isinstance(W, (int, float)):
        return (_integer("W", W),)
    if isinstance(W, (list, tuple)):
        return tuple(_integer("W", v) for v in W)
    if isinstance(W, dict):
        missing = {"start", "stop"} - set(W)
        if missing:
            raise ConfigError(f"window grid lacks {sorted(missing)}")
        start, stop = _integer("W start", W["start"]), _integer("W stop", W["stop"])
        step = _integer("W step", W.get("step", 1))
        if step <= 0 or stop < start:
            raise ConfigError("window grid must ascend")
        return tuple(range(start, stop + 1, step))
    raise ConfigError(f"cannot parse window sizes from {W!r}")


def _parse_epsilon(raw: dict) -> tuple[Optional[float], Optional[dict]]:
    if "epsilon" not in raw:
        return None, None
    eps = raw["epsilon"]
    if isinstance(eps, (int, float)):
        return float(eps), None
    if isinstance(eps, dict):
        missing = {"start", "stop", "step"} - set(eps)
        if missing:
            raise ConfigError(f"epsilon grid lacks {sorted(missing)}")
        for key in ("start", "stop", "step"):
            if not isinstance(eps[key], (int, float)) and (key, eps[key]) != ("stop", MAP_STOP):
                raise ConfigError(f"epsilon grid {key} must be a number, got {eps[key]!r}")
        return None, dict(eps)
    raise ConfigError(f"cannot parse epsilon from {eps!r}")


def _section(raw: dict, key: str) -> dict:
    section = raw.get(key, {})
    if not isinstance(section, dict):
        raise ConfigError(f"'{key}' must be a mapping, got {section!r}")
    return dict(section)


def config_from_mapping(raw: dict) -> RunConfig:
    if not isinstance(raw, dict):
        raise ConfigError("configuration root must be a mapping")
    known = {
        "ensemble", "ensembles", "N", "w", "epsilon", "W", "T", "T_max",
        "T_first", "alpha", "schedule", "success", "record", "steady_tol",
        "grid_n", "bounds",
    }
    unknown = set(raw) - known
    if unknown:
        raise ConfigError(f"unknown configuration keys: {sorted(unknown)}")
    epsilon, epsilon_grid = _parse_epsilon(raw)
    try:
        success = SuccessConfig(**_section(raw, "success"))
        rec_raw = _section(raw, "record")
        if rec_raw.get("windows") is not None:
            rec_raw["windows"] = tuple(
                _integer("record.windows", c) for c in rec_raw["windows"]
            )
        return RunConfig(
            ensembles=_parse_ensembles(raw),
            N=_integer("N", raw.get("N", 100)),
            w=_integer("w", raw.get("w", 1)),
            epsilon=epsilon,
            epsilon_grid=epsilon_grid,
            W=_parse_window_sizes(raw),
            T=None if raw.get("T") in (None, "auto") else _integer("T", raw["T"]),
            T_max=_integer("T_max", raw.get("T_max", 200)),
            T_first=None if raw.get("T_first") is None else _integer("T_first", raw["T_first"]),
            alpha=float(raw.get("alpha", 1.0)),
            schedule=raw.get("schedule", "literal"),
            success=success,
            record=RecordConfig(**rec_raw),
            steady_tol=float(raw.get("steady_tol", 1e-9)),
            grid_n=_integer("grid_n", raw.get("grid_n", 10_001)),
            bounds=raw.get("bounds", True),
        )
    except (TypeError, ValueError) as exc:
        if isinstance(exc, ConfigError):
            raise
        raise ConfigError(str(exc))


def load_config(path: str | Path) -> RunConfig:
    text = Path(path).read_text()
    try:
        raw = yaml.safe_load(text)
    except yaml.YAMLError as exc:
        raise ConfigError(f"cannot parse {path}: {exc}")
    return config_from_mapping(raw)


def load_preset(name: str) -> RunConfig:
    if name not in PRESETS:
        raise ConfigError(f"unknown preset {name!r}; choose from {PRESETS}")
    ref = resources.files("scwde").joinpath(f"presets/{name}.yaml")
    raw = yaml.safe_load(ref.read_text())
    return config_from_mapping(raw)
