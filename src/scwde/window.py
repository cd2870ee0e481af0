"""Windowed density evolution for spatially coupled LDPC ensembles on the BEC."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, Literal, Optional

import numpy as np

from .scalar import UncoupledEnsemble

# Floating-point slack for the componentwise monotonicity checks; the exact
# recursion is monotone, rounding may wiggle by a few ulps.
MONOTONE_SLACK = 1e-12

ScheduleVariant = Literal["literal", "extended"]


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


class ChainCheckError(ArithmeticError):
    """A validated run broke a property of the exact recursion: an erasure
    rose during the sweeps, left [0, 1], or changed outside the window."""


@dataclass(frozen=True)
class DEState:
    """Erasure vector over check positions 1..N+w-1 at (window c, iteration t)."""

    x: np.ndarray
    c: int
    t: int


def _padded(x: np.ndarray, w: int) -> np.ndarray:
    """Values at positions 1-w..len(x)+w: position p sits at index p+w-1.

    The w zero ghost positions on each side cover every read of the window
    kernel (w-1 beyond the chain) and the x_{c-1} read of the slope terms.
    """
    buf = np.zeros(len(x) + 2 * w)
    buf[w : w + len(x)] = x
    return buf


def _channel_profile(spec: CoupledSpec) -> np.ndarray:
    """Erasure probability in the padded layout: eps on positions 1..N only."""
    return _padded(np.full(spec.N, spec.epsilon), spec.w)


def _window_inputs(
    buf: np.ndarray, eps: np.ndarray, c: int, W: int, w: int
) -> tuple[np.ndarray, np.ndarray]:
    """Views of the reads at positions c-w+1..c+W+w-2 and of the channel at
    the check averages u = c-w+1..c+W-1 that window c needs."""
    return buf[c : c + W + 2 * w - 2], eps[c : c + W + w - 1]


def _slope_segment(x: np.ndarray, c: int, W: int, w: int) -> np.ndarray:
    """Positions c-1..c+W-1 of a chain vector: window c and its left neighbour."""
    return _padded(x, w)[c + w - 2 : c + W + w - 1]


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
    return _window_kernel(_padded(x, spec.w), _channel_profile(spec), c, W, spec)


def _window_kernel(
    buf: np.ndarray, eps: np.ndarray, c: int, W: int, spec: CoupledSpec
) -> np.ndarray:
    """``window_update_values`` on the padded layout and channel profile."""
    w = spec.w
    # Check averages S_u for u = c-w+1..c+W-1 read positions u..u+w-1.
    reads, eps_u = _window_inputs(buf, eps, c, W, w)
    rho_vals = spec.ens.rho(1.0 - reads)
    s = _moving_mean(rho_vals, w)
    lam_vals = spec.ens.lam(1.0 - s)
    return _moving_mean(eps_u * lam_vals, w)


class Trajectory:
    """Recorded states x^(c,t) for selected window configurations.

    ``block(c)`` is the read-only array of shape (T_c+1, N+w-1) holding
    iterations t = 0..T_c of configuration c.
    """

    def __init__(self, sched: WindowSchedule, spec: CoupledSpec):
        self.sched = sched
        self.spec = spec
        self._blocks: dict[int, np.ndarray] = {}

    def windows(self) -> list[int]:
        return sorted(self._blocks)

    def block(self, c: int) -> np.ndarray:
        return self._blocks[c]


@dataclass(frozen=True)
class SuccessReport:
    """``metric`` is the value the policy compares: ``avg`` or ``max``."""

    success: bool
    avg: float
    max: float
    metric: float


def _check_success_rule(threshold: float, policy: str) -> None:
    if threshold <= 0:
        raise ValueError("threshold must be positive")
    if policy not in ("average", "max"):
        raise ValueError(f"unknown success policy {policy!r}")


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
    _check_success_rule(threshold, policy)
    region = final.x[: spec.N]
    avg = float(np.mean(region))
    mx = float(np.max(region))
    metric = avg if policy == "average" else mx
    return SuccessReport(success=bool(metric < threshold), avg=avg, max=mx, metric=metric)


def run_wd(
    spec: CoupledSpec,
    sched: WindowSchedule,
    record: bool = False,
    record_windows: Optional[Iterable[int]] = None,
    validate: bool = True,
    stop: Optional[Callable[[int, np.ndarray], bool]] = None,
) -> tuple[DEState, Optional[Trajectory]]:
    """Run the window schedule: T_c sweeps at each configuration c.

    One erasure vector, a view into the padded layout, is updated in place;
    sliding the window is the step to the next c. ``record`` keeps every
    iteration of the selected window configurations (all of them when
    ``record_windows`` is None). ``stop(c, x)`` is called once after each
    window c with the live erasure vector, which it must not write to; a
    true result ends the run there. The returned state is the vector after
    the last window run, and its ``c`` is that window; a stopped run keeps
    the trajectory of the windows it ran.
    """
    sched.validate(spec)
    wanted = None if record_windows is None else set(record_windows)
    traj = Trajectory(sched, spec) if record else None
    buf = _padded(np.ones(spec.chain_len), spec.w)
    x = buf[spec.w : spec.w + spec.chain_len]
    eps = _channel_profile(spec)
    for c in range(1, sched.c_max(spec) + 1):
        lo, hi = c - 1, c - 1 + sched.W
        T_c = sched.iterations_for(c)
        rows = None
        if traj is not None and (wanted is None or c in wanted):
            rows = traj._blocks[c] = np.empty((T_c + 1, spec.chain_len))
            rows[0] = x
        prev = x.copy() if validate else None
        for t in range(1, T_c + 1):
            new_vals = _window_kernel(buf, eps, c, sched.W, spec)
            if validate:
                if np.any(new_vals > x[lo:hi] + MONOTONE_SLACK):
                    raise ChainCheckError(f"erasure increased within window c={c}, t={t}")
                if np.any(new_vals < -MONOTONE_SLACK) or np.any(new_vals > 1.0 + MONOTONE_SLACK):
                    raise ChainCheckError("erasure left [0, 1]")
            x[lo:hi] = new_vals
            if rows is not None:
                rows[t] = x
        if rows is not None:
            rows.flags.writeable = False
        if validate:
            outside = np.concatenate([x[:lo], x[hi:]])
            if not np.array_equal(outside, np.concatenate([prev[:lo], prev[hi:]])):
                raise ChainCheckError("out-of-window positions changed during sweeps")
        if stop is not None and stop(c, x):
            break
    return DEState(x=x, c=c, t=T_c), traj
