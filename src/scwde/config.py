"""Run configuration: YAML ingestion, validation, and grid expansion."""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from importlib import resources
from pathlib import Path
from typing import Any, Callable, Iterable, Optional

import yaml

from .scalar import GRID_N_DEFAULT, GRID_N_MIN, UncoupledEnsemble, map_threshold
from .speed import STEADY_TOL, T_MAX_DEFAULT, SuccessRule
from .window import CoupledSpec, WindowSchedule

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
class RunConfig:
    """One run request: ensembles, coupling, channel grid, window grid.

    ``epsilon`` holds each ensemble's ε values, in the order of
    ``ensembles``, as the config expands them at load. The coupling, ε and
    window values are checked by building the engine's types from them: a
    ``CoupledSpec`` per ε and a ``WindowSchedule`` per window size. These
    field defaults are the only ones: a key a YAML config leaves out is not
    passed.
    """

    ensembles: tuple[UncoupledEnsemble, ...] = ()
    N: int = 100
    w: int = 1
    epsilon: tuple[tuple[float, ...], ...] = ()
    W: tuple[int, ...] = ()
    T: Optional[int] = None  # None means "auto" (search for the minimum)
    T_max: int = T_MAX_DEFAULT
    T_first: Optional[int] = None
    alpha: float = 1.0
    schedule: str = "extended"
    success: SuccessRule = SuccessRule()
    record_windows: Optional[tuple[int, ...]] = None  # None records every window
    steady_tol: float = STEADY_TOL
    grid_n: int = GRID_N_DEFAULT
    bounds: bool = True

    def __post_init__(self) -> None:
        if not self.ensembles:
            raise ConfigError("at least one ensemble is required")
        if len(self.epsilon) != len(self.ensembles) or not all(self.epsilon):
            raise ConfigError("epsilon (or an epsilon grid) is required")
        labels = [ens.label() for ens in self.ensembles]
        if len(set(labels)) < len(labels):
            raise ConfigError(f"ensembles must have distinct labels, got {labels}")
        specs = [CoupledSpec(ens, self.N, self.w, eps)
                 for ens, epsilons in zip(self.ensembles, self.epsilon) for eps in epsilons]
        for W in self.W or (1,):
            self.window_schedule(W).validate(specs[0])
        if not 1.0 <= self.alpha <= 2.0:
            raise ConfigError("alpha must lie in [1, 2]")
        if self.T_max < 1:
            raise ConfigError("T_max must be >= 1")
        if self.grid_n < GRID_N_MIN:
            raise ConfigError(f"grid_n must be >= {GRID_N_MIN} for reliable bracketing")
        if self.grid_n > MAX_GRID_N:
            raise ConfigError(f"grid_n must be <= {MAX_GRID_N}")
        if self.steady_tol < 0:
            raise ConfigError("steady_tol must be >= 0")
        if not isinstance(self.bounds, bool):
            raise ConfigError(f"bounds must be true or false, got {self.bounds!r}")

    def window_schedule(self, W: int) -> WindowSchedule:
        """The schedule of window size W that every run of this config uses;
        under ``T: auto`` its T is 1, where the T search starts."""
        return WindowSchedule(W, 1 if self.T is None else self.T, self.schedule, self.T_first)


_GRID_KEYS = ("start", "stop", "step")


def _mapping(value: Any, name: str, keys: Iterable, required: Iterable = ()) -> dict:
    """``value`` checked to be a mapping whose keys are among ``keys`` and
    include every one of ``required``."""
    if not isinstance(value, dict):
        raise ConfigError(f"{name} must be a mapping, got {value!r}")
    unknown = sorted(set(value) - set(keys), key=str)
    if unknown:
        raise ConfigError(f"unknown {name} keys: {unknown}")
    missing = [key for key in required if key not in value]
    if missing:
        raise ConfigError(f"{name} lacks {missing}")
    return value


def _integer(key: str, value: Any, *_) -> int:
    """An integer config value; YAML booleans and fractional floats are rejected."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return int(value)


def _real(key: str, value: Any, *_) -> float:
    """A finite config value converted with float(); YAML booleans are rejected."""
    try:
        result = math.nan if isinstance(value, bool) else float(value)
    except (TypeError, ValueError):
        result = math.nan
    if not math.isfinite(result):
        raise ConfigError(f"{key} must be a finite number, got {value!r}")
    return result


def _is_number(value: Any) -> bool:
    """An int or float that is not a YAML boolean."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _as_is(key: str, value: Any, *_) -> Any:
    return value


def _ensemble(item: Any) -> UncoupledEnsemble:
    spec = _mapping(item, "ensemble", ("L", "R"), required=("L", "R"))
    try:
        return UncoupledEnsemble.from_specs(spec["L"], spec["R"])
    except ValueError as exc:
        raise ConfigError(f"bad ensemble {item!r}: {exc}")


def _ensembles(key: str, value: Any, *_) -> tuple[UncoupledEnsemble, ...]:
    if not isinstance(value, list):
        raise ConfigError(f"{key} must be a list, got {value!r}")
    return tuple(_ensemble(item) for item in value)


def _epsilon(key: str, value: Any, parsed: dict) -> tuple[tuple[float, ...], ...]:
    """Each parsed ensemble's ε values: a value alone, or a grid's points. A
    grid ascends from ``start`` by ``step`` and ends at ``stop`` or, for
    ``stop: map_threshold``, just below the ensemble's MAP threshold."""
    if _is_number(value):
        return tuple((float(value),) for _ in parsed.get("ensembles", ()))
    if not isinstance(value, dict):
        raise ConfigError(f"cannot parse epsilon from {value!r}")
    grid = _mapping(value, "epsilon grid", _GRID_KEYS, required=_GRID_KEYS)
    for bound, v in grid.items():
        if not (_is_number(v) and math.isfinite(v)) and (bound, v) != ("stop", MAP_STOP):
            raise ConfigError(f"epsilon grid {bound} must be a finite number, got {v!r}")
    start, stop, step = float(grid["start"]), grid["stop"], float(grid["step"])
    if not step > 0:
        raise ConfigError("epsilon grid step must be positive")
    values = []
    for ens in parsed.get("ensembles", ()):
        end = map_threshold(ens) if stop == MAP_STOP else float(stop)
        steps = (end - start) / step + 1e-12
        if steps >= MAX_EPSILON_POINTS:
            raise ConfigError(
                f"epsilon grid has {steps + 1:.4g} points, more than {MAX_EPSILON_POINTS}"
            )
        points = [v for v in (start + i * step for i in range(math.floor(steps) + 1))
                  if stop != MAP_STOP or v < end - 1e-15]
        if not points:
            raise ConfigError("epsilon grid must ascend")
        values.append(tuple(round(v, 12) for v in points))
        if len(set(values[-1])) < len(points):
            raise ConfigError("epsilon grid step repeats values at 12 decimals")
    return tuple(values)


def _window_sizes(key: str, value: Any, parsed: dict) -> tuple[int, ...]:
    """The distinct window sizes, ascending, from a value, a list or a grid;
    a grid must lie in 1..N before it is expanded."""
    if isinstance(value, (int, float)):
        return (_integer("W", value),)
    if isinstance(value, (list, tuple)):
        return tuple(sorted({_integer("W", v) for v in value}))
    if not isinstance(value, dict):
        raise ConfigError(f"cannot parse window sizes from {value!r}")
    grid = _mapping(value, "window grid", _GRID_KEYS, required=("start", "stop"))
    start, stop = _integer("W start", grid["start"]), _integer("W stop", grid["stop"])
    step = _integer("W step", grid.get("step", 1))
    if step <= 0 or stop < start:
        raise ConfigError("window grid must ascend")
    N = parsed.get("N", RunConfig.N)
    if start < 1 or stop > N:
        raise ConfigError(f"window grid {start}..{stop} must lie in 1..N={N}")
    return tuple(range(start, stop + 1, step))


def _success(key: str, value: Any, *_) -> SuccessRule:
    rule = dict(_mapping(value, key, [f.name for f in fields(SuccessRule)]))
    if "threshold" in rule:
        rule["threshold"] = _real("success.threshold", rule["threshold"])
    return SuccessRule(**rule)


def _record(key: str, value: Any, *_) -> Optional[tuple[int, ...]]:
    """record.windows; record.policy may name only the one policy there is."""
    record = _mapping(value, key, ("policy", "windows"))
    policy = record.get("policy", "per-window")
    if policy != "per-window":
        raise ConfigError(f"record policy must be 'per-window', got {policy!r}")
    windows = record.get("windows")
    if windows is None:
        return None
    if not isinstance(windows, list):
        raise ConfigError(f"record.windows must be a list, got {windows!r}")
    return tuple(_integer("record.windows", c) for c in windows)


# Every YAML key: the RunConfig field it sets and its converter, called as
# convert(key, value, parsed) where ``parsed`` holds the fields set by the
# keys above it (epsilon reads the ensembles there, W reads N). A key the YAML
# does not give sets nothing, so RunConfig's field defaults are the only defaults.
_KEYS: dict[str, tuple[str, Callable[[str, Any, dict], Any]]] = {
    "ensemble": ("ensembles", lambda key, value, _: (_ensemble(value),)),
    "ensembles": ("ensembles", _ensembles),
    "N": ("N", _integer),
    "w": ("w", _integer),
    "epsilon": ("epsilon", _epsilon),
    "W": ("W", _window_sizes),
    "T": ("T", lambda key, value, _: None if value in (None, "auto") else _integer(key, value)),
    "T_max": ("T_max", _integer),
    "T_first": ("T_first", lambda key, value, _: None if value is None else _integer(key, value)),
    "alpha": ("alpha", _real),
    "schedule": ("schedule", _as_is),
    "success": ("success", _success),
    "record": ("record_windows", _record),
    "steady_tol": ("steady_tol", _real),
    "grid_n": ("grid_n", _integer),
    "bounds": ("bounds", _as_is),
}


def config_from_mapping(raw: Any) -> RunConfig:
    parsed: dict[str, Any] = {}
    try:
        _mapping(raw, "configuration", _KEYS)
        for key, (name, convert) in _KEYS.items():
            if key not in raw:
                continue
            if name in parsed:
                given = " or ".join(repr(k) for k in raw if _KEYS[k][0] == name)
                raise ConfigError(f"give either {given}, not both")
            parsed[name] = convert(key, raw[key], parsed)
        return RunConfig(**parsed)
    except (TypeError, ValueError) as exc:  # a ConfigError keeps its message
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
