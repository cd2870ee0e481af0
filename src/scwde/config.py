"""Run configuration: YAML ingestion, validation, and grid expansion."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from typing import Any, Optional

import yaml

from .coupled import CoupledPotentialContext
from .poly import PolySpec
from .scalar import GRID_N_MIN, UncoupledEnsemble, map_threshold
from .window import CoupledSpec, SuccessRule, WindowSchedule

PRESETS = ("table1", "fig2", "fig3", "fig4")

# Sentinel for an epsilon grid that stops just below the MAP threshold,
# resolved per ensemble at expansion time.
MAP_STOP = "map_threshold"

# Largest epsilon grid a config may expand to; every point is a full T search.
MAX_EPSILON_POINTS = 10_000

# Largest landscape grid: about 80 B and 12 us per point, so about 80 MB and
# 12 s per landscape at the cap.
MAX_GRID_N = 1_000_001


class ConfigError(ValueError):
    """Invalid or missing run-configuration data."""


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
    ``map_threshold`` is resolved per ensemble when expanding. The coupling,
    window and alpha values are checked by building the engine's types from
    them: ``CoupledSpec``, a ``WindowSchedule`` per window size and a
    ``CoupledPotentialContext``.
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
    success: SuccessRule = SuccessRule()
    record: RecordConfig = field(default_factory=RecordConfig)
    steady_tol: float = 1e-9
    grid_n: int = 10_001
    bounds: bool = True

    def __post_init__(self) -> None:
        if not self.ensembles:
            raise ConfigError("at least one ensemble is required")
        if self.epsilon is None and self.epsilon_grid is None:
            raise ConfigError("epsilon (or an epsilon grid) is required")
        eps = 0.0 if self.epsilon is None else self.epsilon
        spec = CoupledSpec(self.ensembles[0], self.N, self.w, eps)
        for W in self.W or (1,):
            sched = WindowSchedule(W, 1 if self.T is None else self.T, self.schedule,
                                   self.T_first)
            CoupledPotentialContext(spec, sched, c=1, alpha=self.alpha)
        if self.T is None and self.T_max < 1:
            raise ConfigError("T_max must be >= 1")
        if self.grid_n < GRID_N_MIN:
            raise ConfigError(f"grid_n must be >= {GRID_N_MIN} for reliable bracketing")
        if self.grid_n > MAX_GRID_N:
            raise ConfigError(f"grid_n must be <= {MAX_GRID_N}")
        if self.steady_tol < 0:
            raise ConfigError("steady_tol must be >= 0")
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


def _real(key: str, value: Any) -> float:
    """A finite config value converted with float(); YAML booleans are rejected."""
    try:
        result = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        result = math.nan
    if not math.isfinite(result):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return result


def _parse_window_sizes(raw: dict, N: int) -> tuple[int, ...]:
    """Window sizes from a value, a list or a grid; a grid must lie in 1..N
    before it is expanded."""
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
        if start < 1 or stop > N:
            raise ConfigError(f"window grid {start}..{stop} must lie in 1..N={N}")
        return tuple(range(start, stop + 1, step))
    raise ConfigError(f"cannot parse window sizes from {W!r}")


def _is_number(value: Any) -> bool:
    """An int or float that is not a YAML boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _parse_epsilon(raw: dict) -> tuple[Optional[float], Optional[dict]]:
    if "epsilon" not in raw:
        return None, None
    eps = raw["epsilon"]
    if _is_number(eps):
        return float(eps), None
    if isinstance(eps, dict):
        missing = {"start", "stop", "step"} - set(eps)
        if missing:
            raise ConfigError(f"epsilon grid lacks {sorted(missing)}")
        for key in ("start", "stop", "step"):
            if not _is_number(eps[key]) and (key, eps[key]) != ("stop", MAP_STOP):
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
        N = _integer("N", raw.get("N", 100))
        success_raw = _section(raw, "success")
        if "threshold" in success_raw:
            success_raw["threshold"] = _real("success.threshold", success_raw["threshold"])
        success = SuccessRule(**success_raw)
        rec_raw = _section(raw, "record")
        if rec_raw.get("windows") is not None:
            if not isinstance(rec_raw["windows"], list):
                raise ConfigError(f"record.windows must be a list, got {rec_raw['windows']!r}")
            rec_raw["windows"] = tuple(
                _integer("record.windows", c) for c in rec_raw["windows"]
            )
        return RunConfig(
            ensembles=_parse_ensembles(raw),
            N=N,
            w=_integer("w", raw.get("w", 1)),
            epsilon=epsilon,
            epsilon_grid=epsilon_grid,
            W=_parse_window_sizes(raw, N),
            T=None if raw.get("T") in (None, "auto") else _integer("T", raw["T"]),
            T_max=_integer("T_max", raw.get("T_max", 200)),
            T_first=None if raw.get("T_first") is None else _integer("T_first", raw["T_first"]),
            alpha=_real("alpha", raw.get("alpha", 1.0)),
            schedule=raw.get("schedule", "literal"),
            success=success,
            record=RecordConfig(**rec_raw),
            steady_tol=_real("steady_tol", raw.get("steady_tol", 1e-9)),
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
