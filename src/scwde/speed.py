"""Wave steady state, propagation speed, and its upper bounds."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .coupled import CoupledPotentialContext, coupled_potential
from .scalar import PotentialLandscape, de_step, potential, potential_d1
from .window import (
    CoupledSpec,
    DEState,
    SuccessReport,
    Trajectory,
    WindowSchedule,
    _check_success_rule,
    _slope_segment,
    decode_success,
    run_wd,
)

STEADY_TOL = 1e-9
T_MAX_DEFAULT = 200

# Relative margin by which the frozen erasures must exceed the average-policy
# limit before a search run stops; far above the rounding of a sum over N terms.
ABORT_SLACK = 1e-9


@dataclass(frozen=True)
class SteadyState:
    """First window configuration from which the profile translates exactly.

    ``residual`` is the largest shift mismatch over the steady suffix;
    ``c_prime`` is None when no steady configuration exists in the run.
    """

    c_prime: Optional[int]
    residual: Optional[float]
    tol: float


def _interior_pairs(traj: Trajectory) -> list[int]:
    """Window indices c with both windows c, c+1 recorded and fully inside
    the uniform-channel region (no termination effects)."""
    spec, sched = traj.spec, traj.sched
    interior_last = spec.N - sched.W + 1
    cs = traj.windows()
    have = set(cs)
    return [c for c in cs if c + 1 in have and c + 1 <= interior_last]


def detect_steady_state(traj: Trajectory, tol: float = STEADY_TOL) -> SteadyState:
    """Locate the first c' whose profile shifts one position per window slide.

    For each consecutive interior pair (c, c+1) and every recorded
    iteration t, the shift mismatch max_z |x_z^(c,t) - x_{z+1}^(c+1,t)|
    and the spatial ordering x_{z+1} >= x_z - tol are evaluated over the
    wave-carrying positions: from w left of the window rightward, with a
    margin of w positions at both chain boundaries. (Positions the window
    left long before c keep the start-up transient frozen forever and say
    nothing about the traveling profile.) c' is the smallest index such
    that every later interior pair also complies.
    """
    spec, sched = traj.spec, traj.sched
    w, N = spec.w, spec.N
    pairs = _interior_pairs(traj)
    mismatches: dict[int, float] = {}
    ordered: dict[int, bool] = {}
    for c in pairs:
        z_lo = max(w + 1, c - w)
        z_hi = N - 1  # compare z against z+1, both clear of the right boundary
        if z_lo > z_hi:
            continue
        cur = traj.block(c)
        nxt = traj.block(c + 1)
        rows = min(cur.shape[0], nxt.shape[0])
        seg = cur[:rows, z_lo - 1 : z_hi]
        seg_next = nxt[:rows, z_lo : z_hi + 1]
        mismatches[c] = float(np.max(np.abs(seg - seg_next)))
        ordered[c] = bool(np.all(cur[:rows, z_lo : z_hi + 1] >= seg - tol))
    c_prime = None
    best: Optional[float] = None
    for c in sorted(mismatches, reverse=True):
        if mismatches[c] <= tol and ordered[c]:
            c_prime = c
            best = mismatches[c] if best is None else max(best, mismatches[c])
        else:
            break
    if c_prime is None:
        return SteadyState(c_prime=None, residual=None, tol=tol)
    return SteadyState(c_prime=c_prime, residual=best, tol=tol)


def bound_a1(
    traj: Trajectory,
    c_prime: int,
    alpha: float = 1.0,
) -> float:
    """Trajectory upper bound on the speed from the potential drop per slide.

    Both potential evaluations use window configuration c'; the denominator
    sums rho'(1-x_z) (x_z - x_{z-1})^2 over the window at t = 0, reading
    x_0 as zero.
    """
    spec, sched = traj.spec, traj.sched
    if c_prime + 1 not in set(traj.windows()):
        raise ValueError(f"trajectory lacks window {c_prime + 1}")
    ctx = CoupledPotentialContext(spec=spec, sched=sched, c=c_prime, alpha=alpha)
    x_now = traj.block(c_prime)[0]
    x_next = traj.block(c_prime + 1)[0]
    num = alpha * (coupled_potential(x_now, ctx) - coupled_potential(x_next, ctx))
    seg = _slope_segment(x_now, c_prime, sched.W, spec.w)
    den = float(np.sum(spec.ens.rho_d1(1.0 - seg[1:]) * np.diff(seg) ** 2))
    if abs(den) < 1e-300:
        raise ZeroDivisionError("flat steady profile: speed-bound denominator is zero")
    return float(num / den)


@dataclass(frozen=True)
class LandscapeBounds:
    """Closed-form speed bounds from the scalar potential landscape.

    ``finite_w``/``infinite_w`` are None when the corresponding denominator
    is not positive (bound vacuous).
    """

    finite_w: Optional[float]
    infinite_w: Optional[float]
    B1: float
    B2: float
    numerator: float
    alpha: float


def bound_th2(
    spec: CoupledSpec,
    W: int,
    land: PotentialLandscape,
    alpha: float = 1.0,
) -> LandscapeBounds:
    """Evaluate the landscape-only speed bounds for window size W.

    Requires the landscape to provide x_a, x_b, x_c0, x_d and D.
    """
    if abs(land.epsilon - spec.epsilon) > 1e-15:
        raise ValueError(
            f"landscape epsilon {land.epsilon} does not match spec epsilon {spec.epsilon}"
        )
    needed = {"x_a": land.x_a, "x_b": land.x_b, "x_c0": land.x_c0, "x_d": land.x_d}
    missing = [k for k, v in needed.items() if v is None]
    if missing or land.D is None:
        missing += ["D"] if land.D is None else []
        raise ValueError(f"landscape lacks {', '.join(missing)}")
    ens, w, eps = spec.ens, spec.w, land.epsilon
    u_xb = float(potential(land.x_b, eps, ens))
    u_xd = float(potential(land.x_d, eps, ens))
    du_xa = float(potential_d1(land.x_a, eps, ens))
    du_xc0 = float(potential_d1(land.x_c0, eps, ens))
    b2 = 2.0 * u_xb - u_xd + W * (du_xa**2 + du_xc0**2) / land.D
    b1 = b2 - land.D * land.x_d / w

    num = w * alpha * float(potential(1.0, eps, ens))

    return LandscapeBounds(
        finite_w=(num / b1) if b1 > 0.0 else None,
        infinite_w=(num / b2) if b2 > 0.0 else None,
        B1=b1,
        B2=b2,
        numerator=num,
        alpha=alpha,
    )


@dataclass(frozen=True)
class SlopeMarginReport:
    min_margin: float
    holds: bool
    margins: tuple[float, ...]


def slope_margin_check(
    state: DEState,
    spec: CoupledSpec,
    sched: WindowSchedule,
    tol: float = 1e-9,
) -> SlopeMarginReport:
    """Check the profile-slope lower bound at the state's window.

    For each in-window z the margin is
    (x_z - x_{z-1}) - |x_z - eps lam(1 - rho(1 - x_z))| / w;
    the bound holds when every margin is >= -tol.
    """
    seg = _slope_segment(state.x, state.c, sched.W, spec.w)
    xs = seg[1:]
    margins = np.diff(seg) - np.abs(xs - de_step(xs, spec.epsilon, spec.ens)) / spec.w
    min_margin = float(np.min(margins))
    return SlopeMarginReport(
        min_margin=min_margin,
        holds=min_margin >= -tol,
        margins=tuple(margins.tolist()),
    )


@dataclass(frozen=True)
class SpeedReport:
    """Outcome of a speed measurement at one (epsilon, W) point.

    ``T_min`` is the smallest iterations-per-window count that decodes;
    the wave speed is its reciprocal. Bounds are filled when computable.
    """

    epsilon: float
    W: int
    T_min: Optional[int]
    c_prime: Optional[int]
    A1: Optional[float]
    th2_finite: Optional[float]
    th2_infinite: Optional[float]
    alpha: float
    success_policy: str
    T_max: int
    best_avg: Optional[float] = None
    steady_residual: Optional[float] = None
    th2_B1: Optional[float] = None
    th2_B2: Optional[float] = None
    th2_hypothesis_residual: Optional[float] = None

    @property
    def v(self) -> Optional[float]:
        return None if self.T_min is None else 1.0 / self.T_min

    CSV_COLUMNS = (
        "epsilon",
        "W",
        "T_min",
        "v",
        "c_prime",
        "A1",
        "th2_finite",
        "th2_infinite",
        "alpha",
        "success_policy",
    )

    def csv_values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.CSV_COLUMNS)


def _th2_left_edge_residual(traj: Trajectory) -> Optional[float]:
    """Largest x_{c-1} at t = 0 over recorded interior windows c > 1.

    Diagnoses the closed-form bound's hypothesis that the position just
    left of the window has fully decoded when the window arrives.
    """
    vals = [traj.block(c)[0, c - 2] for c in traj.windows() if c > 1]
    return float(max(vals)) if vals else None


class _FrozenPrefixStop:
    """``run_wd`` stop hook of the T search, one per run. It ends the run
    after window ``c_stop`` (None: the last), or at the first window c after
    which ``decode_success`` is sure to judge the run failed; ``failed_at``
    is then c.

    Once window c ends, position c never changes again. The run has failed
    for good once the frozen positions 1..min(c, N) sum to N*threshold
    (``average``, inflated by ``ABORT_SLACK`` so that the rounding of
    ``np.mean`` cannot stop a decoding run) or one of them reaches the
    threshold (``max``). Frozen values only fall as T grows, so the window
    where a run fails is monotone in T.
    """

    def __init__(self, spec: CoupledSpec, threshold: float, policy: str,
                 c_stop: Optional[int] = None):
        _check_success_rule(threshold, policy)
        self.N, self.threshold, self.policy, self.c_stop = spec.N, threshold, policy, c_stop
        self.limit = spec.N * threshold * (1.0 + ABORT_SLACK)
        self.frozen_sum = 0.0
        self.failed_at: Optional[int] = None

    def __call__(self, c: int, x: np.ndarray) -> bool:
        if c <= self.N:
            self.frozen_sum += x[c - 1]
            if (x[c - 1] >= self.threshold if self.policy == "max"
                    else self.frozen_sum >= self.limit):
                self.failed_at = c
        return self.failed_at is not None or c == self.c_stop


def measure_speed(
    spec: CoupledSpec,
    W: int,
    T_max: int = T_MAX_DEFAULT,
    alpha: float = 1.0,
    success_policy: str = "average",
    success_threshold: float = 1e-6,
    schedule_variant: str = "literal",
    steady_tol: float = STEADY_TOL,
    land: Optional[PotentialLandscape] = None,
    compute_bounds: bool = True,
    validate: bool = True,
    T_lo: int = 1,
    T_first: Optional[int] = None,
) -> SpeedReport:
    """Find the smallest iterations-per-window count T in [T_lo, T_max] that decodes.

    A run "survives prefix c" when ``_FrozenPrefixStop`` has not failed it
    by the end of window c; on the whole schedule it must also decode. A
    decoding run survives every prefix, and survival of a prefix is
    monotone in T (property-tested in ``tests/test_window.py``). So the
    search goes in rounds, from prefix 1 and lo = T_lo:

    - gallop through lo, lo+1, lo+3, lo+7, ... (clipped to T_max) until a T
      survives the prefix, then bisect below it. Probes run only the
      prefix's windows; T_max counts as surviving without a probe;
    - run that T on the whole schedule, stopped when it fails (never at
      T_max), recording it when ``compute_bounds`` is on. If it decodes it
      is T_min; if it fails at window c (the last one when only the final
      policy fails), drop its trajectory and search prefix c from lo = T+1.

    The full run repeats its probe's windows, so it can only fail past the
    prefix: the prefix grows every round. Most points take one round; a
    round on the whole schedule repeats its winner once, to record it.
    T_lo = T_max tests one fixed budget with one full run, and every run
    gives the first window ``T_first`` iterations when that is set.

    ``best_avg`` is the success policy's metric of the run at T_min when a
    T decodes, and of the full run at T_max when none does. The T_min run's
    trajectory locates the steady state and gives the trajectory bound; the
    landscape bounds are attached when a landscape is supplied.
    """
    if not 1 <= T_lo <= T_max:
        raise ValueError(f"T range {T_lo}..{T_max} is empty or starts below 1")
    _check_success_rule(success_threshold, success_policy)

    def schedule(T: int) -> WindowSchedule:
        return WindowSchedule(W=W, T=T, variant=schedule_variant, T_first=T_first)

    def judge(final: DEState) -> SuccessReport:
        return decode_success(final, spec, threshold=success_threshold, policy=success_policy)

    c_last = schedule(T_lo).c_max(spec)

    def survives(T: int, c_stop: int) -> bool:
        if T == T_max:
            return True
        stop = _FrozenPrefixStop(spec, success_threshold, success_policy, c_stop)
        final, _ = run_wd(spec, schedule(T), validate=validate, stop=stop)
        return stop.failed_at is None and (c_stop < c_last or judge(final).success)

    lo, c_stop = T_lo, 1
    while True:
        failed, T = lo - 1, lo
        while not survives(T, c_stop):
            failed, T = T, min(2 * T - lo + 1, T_max)
        while T - failed > 1:
            mid = (failed + T) // 2
            if survives(mid, c_stop):
                T = mid
            else:
                failed = mid
        stop = None if T == T_max else _FrozenPrefixStop(spec, success_threshold,
                                                          success_policy)
        final, traj = run_wd(spec, schedule(T), record=compute_bounds, validate=validate,
                             stop=stop)
        if stop is None or stop.failed_at is None:
            report = judge(final)
            if report.success or T == T_max:
                break
        lo, c_stop, traj = T + 1, final.c, None
    t_min = T if report.success else None
    best_avg = report.metric

    c_prime = a1 = steady_residual = hyp_residual = None
    if t_min is not None and compute_bounds:
        steady = detect_steady_state(traj, tol=steady_tol)
        c_prime = steady.c_prime
        steady_residual = steady.residual
        if c_prime is not None:
            try:
                a1 = bound_a1(traj, c_prime, alpha=alpha)
            except ZeroDivisionError:  # flat steady profile: A1 is undefined
                pass
        hyp_residual = _th2_left_edge_residual(traj)

    th2 = None
    if land is not None and compute_bounds:
        try:
            th2 = bound_th2(spec, W, land, alpha=alpha)
        except ValueError:  # the landscape lacks a critical point
            pass

    return SpeedReport(
        epsilon=spec.epsilon,
        W=W,
        T_min=t_min,
        c_prime=c_prime,
        A1=a1,
        th2_finite=th2.finite_w if th2 else None,
        th2_infinite=th2.infinite_w if th2 else None,
        alpha=alpha,
        success_policy=success_policy,
        T_max=T_max,
        best_avg=best_avg,
        steady_residual=steady_residual,
        th2_B1=th2.B1 if th2 else None,
        th2_B2=th2.B2 if th2 else None,
        th2_hypothesis_residual=hyp_residual,
    )
