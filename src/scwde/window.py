"""Windowed density evolution for spatially coupled LDPC ensembles on the BEC."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Literal, Optional

import numpy as np

from .scalar import UncoupledEnsemble

# Floating-point slack for the componentwise monotonicity checks; the exact
# recursion is monotone, rounding may wiggle by a few ulps.
MONOTONE_SLACK = 1e-12

ScheduleVariant = Literal["literal", "extended"]
RecordPolicy = Literal["none", "per-window"]


@dataclass(frozen=True)
class CoupledSpec:
    """Spatially coupled ensemble: base ensemble, coupling length N, width w.

    The channel profile is uniform over variable positions 1..N and zero
    elsewhere (termination).
    """

    ens: UncoupledEnsemble
    N: int
    w: int
    epsilon: float

    def __post_init__(self) -> None:
        if self.N < 1:
            raise ValueError("coupling length N must be >= 1")
        if self.w < 1:
            raise ValueError("coupling width w must be >= 1")
        if not 0.0 <= self.epsilon <= 1.0:
            raise ValueError("epsilon must lie in [0, 1]")

    @property
    def chain_len(self) -> int:
        """Number of check positions: N + w - 1."""
        return self.N + self.w - 1

    def channel(self, z: int) -> float:
        """Erasure probability seen by variable position z."""
        return self.epsilon if 1 <= z <= self.N else 0.0


@dataclass(frozen=True)
class WindowSchedule:
    """Window size W and iterations T per window configuration.

    The ``literal`` variant slides the window over configurations
    c = 1..N-W+1 so it never covers check positions beyond N; the
    ``extended`` variant continues to c = N+w-W so the termination tail
    is updated too (needed for the average erasure to reach ~0).

    ``T_first`` optionally gives the first window a larger iteration
    budget (a common warm start that removes the ignition transient);
    None keeps the uniform schedule.
    """

    W: int
    T: int
    variant: ScheduleVariant = "literal"
    T_first: Optional[int] = None

    def __post_init__(self) -> None:
        if self.W < 1:
            raise ValueError("window size W must be >= 1")
        if self.T < 1:
            raise ValueError("iterations per window T must be >= 1")
        if self.T_first is not None and self.T_first < 1:
            raise ValueError("T_first must be >= 1 when given")
        if self.variant not in ("literal", "extended"):
            raise ValueError(f"unknown schedule variant {self.variant!r}")

    def validate(self, spec: CoupledSpec) -> None:
        if self.W > spec.N:
            raise ValueError(f"window size {self.W} exceeds coupling length {spec.N}")

    def c_max(self, spec: CoupledSpec) -> int:
        if self.variant == "literal":
            return spec.N - self.W + 1
        return spec.N + spec.w - self.W

    def iterations_for(self, c: int) -> int:
        if c == 1 and self.T_first is not None:
            return self.T_first
        return self.T


@dataclass(frozen=True)
class DEState:
    """Erasure vector over check positions 1..N+w-1 at (window c, iteration t)."""

    x: np.ndarray
    c: int
    t: int

    def get(self, z: int) -> float:
        """Position read with the zero boundary rule outside 1..N+w-1."""
        if 1 <= z <= len(self.x):
            return float(self.x[z - 1])
        return 0.0


def _padded_reads(x: np.ndarray, lo: int, hi: int) -> np.ndarray:
    """Values at positions lo..hi (1-based), zero outside 1..len(x)."""
    out = np.zeros(hi - lo + 1)
    src_lo = max(lo, 1)
    src_hi = min(hi, len(x))
    if src_lo <= src_hi:
        out[src_lo - lo : src_hi - lo + 1] = x[src_lo - 1 : src_hi]
    return out


def _moving_mean(v: np.ndarray, width: int) -> np.ndarray:
    cs = np.cumsum(v)
    out = cs[width - 1 :].copy()
    out[1:] -= cs[:-width]
    return out / width


def window_update_values(
    x: np.ndarray, c: int, W: int, spec: CoupledSpec
) -> np.ndarray:
    """New erasure values for the in-window positions z = c..c+W-1.

    Every neighbor read comes from the supplied vector (flooding update);
    positions outside 1..N+w-1 read as zero.
    """
    w = spec.w
    z_lo, z_hi = c, c + W - 1
    # Check averages S_u are needed for u = z_lo-w+1..z_hi and read
    # positions u..u+w-1.
    reads = _padded_reads(x, z_lo - w + 1, z_hi + w - 1)
    rho_vals = spec.ens.rho(1.0 - reads)
    s = _moving_mean(rho_vals, w)  # S_u for u = z_lo-w+1 .. z_hi
    lam_vals = spec.ens.lam(1.0 - s)
    u = np.arange(z_lo - w + 1, z_hi + 1)
    eps = np.where((u >= 1) & (u <= spec.N), spec.epsilon, 0.0)
    return _moving_mean(eps * lam_vals, w)


class Trajectory:
    """Recorded states x^(c,t) for selected window configurations.

    ``block(c)`` is an array of shape (T_c+1, N+w-1) holding iterations
    t = 0..T_c of configuration c.
    """

    def __init__(self, sched: WindowSchedule, spec: CoupledSpec):
        self.sched = sched
        self.spec = spec
        self._blocks: dict[int, list[np.ndarray]] = {}

    def windows(self) -> list[int]:
        return sorted(self._blocks)

    def block(self, c: int) -> np.ndarray:
        return np.asarray(self._blocks[c])

    def state(self, c: int, t: int) -> DEState:
        return DEState(x=self._blocks[c][t].copy(), c=c, t=t)

    def vector(self, c: int, t: int) -> np.ndarray:
        return self._blocks[c][t]

    def rows(self) -> Iterable[tuple[int, int, int, float]]:
        """(c, t, z, x) rows in deterministic order."""
        for c in self.windows():
            for t, vec in enumerate(self._blocks[c]):
                for z in range(1, len(vec) + 1):
                    yield c, t, z, float(vec[z - 1])


@dataclass(frozen=True)
class SuccessReport:
    success: bool
    avg: float
    max: float
    policy: str
    threshold: float


def decode_success(
    final: DEState,
    spec: CoupledSpec,
    threshold: float = 1e-6,
    policy: str = "average",
) -> SuccessReport:
    """Judge decoding from the erasures over variable positions 1..N.

    The default ``average`` policy compares the mean erasure against the
    threshold; ``max`` is the stricter worst-position variant.
    """
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if policy not in ("average", "max"):
        raise ValueError(f"unknown success policy {policy!r}")
    region = final.x[: spec.N]
    avg = float(np.mean(region))
    mx = float(np.max(region))
    metric = avg if policy == "average" else mx
    return SuccessReport(
        success=bool(metric < threshold),
        avg=avg,
        max=mx,
        policy=policy,
        threshold=threshold,
    )


def run_wd(
    spec: CoupledSpec,
    sched: WindowSchedule,
    record: RecordPolicy = "none",
    record_windows: Optional[Iterable[int]] = None,
    validate: bool = True,
) -> tuple[DEState, Optional[Trajectory]]:
    """Run the full window schedule: T_c sweeps at each configuration c.

    One erasure vector is updated in place; sliding the window is the step
    to the next c. ``record='per-window'`` keeps every iteration of the
    selected window configurations (all of them when ``record_windows`` is
    None); ``'none'`` keeps no trajectory.
    """
    if record not in ("none", "per-window"):
        raise ValueError(f"unknown record policy {record!r}")
    sched.validate(spec)
    wanted = None if record_windows is None else set(record_windows)
    traj = Trajectory(sched, spec) if record == "per-window" else None
    x = np.ones(spec.chain_len)
    c_last = sched.c_max(spec)
    for c in range(1, c_last + 1):
        lo, hi = c - 1, c - 1 + sched.W
        rows = None
        if traj is not None and (wanted is None or c in wanted):
            rows = traj._blocks[c] = [x.copy()]
        prev = x.copy() if validate else None
        for t in range(1, sched.iterations_for(c) + 1):
            new_vals = window_update_values(x, c, sched.W, spec)
            if validate:
                if np.any(new_vals > x[lo:hi] + MONOTONE_SLACK):
                    raise AssertionError(f"erasure increased within window c={c}, t={t}")
                if np.any(new_vals < -MONOTONE_SLACK) or np.any(new_vals > 1.0 + MONOTONE_SLACK):
                    raise AssertionError("erasure left [0, 1]")
            x[lo:hi] = new_vals
            if rows is not None:
                rows.append(x.copy())
        if validate:
            outside = np.concatenate([x[:lo], x[hi:]])
            if not np.array_equal(outside, np.concatenate([prev[:lo], prev[hi:]])):
                raise AssertionError("out-of-window positions changed during sweeps")
    return DEState(x=x, c=c_last, t=sched.iterations_for(c_last)), traj
