"""Wave steady state, propagation speed, and its upper bounds."""

from __future__ import annotations

from dataclasses import dataclass, replace
from itertools import groupby
from typing import Generator, Literal, Optional, Sequence

import numpy as np

from .coupled import coupled_potential
from .scalar import GRID_N_DEFAULT, PotentialLandscape, landscape, potential, potential_d1
from .window import Column, CoupledSpec, DEState, WindowSchedule, run_columns, slope_segment

STEADY_TOL = 1e-9
T_MAX_DEFAULT = 200

# Relative margin by which the frozen erasures must exceed the average-policy
# limit before a search run stops; far above the rounding of a sum over N terms.
ABORT_SLACK = 1e-9


def _check_alpha(alpha: float) -> None:
    """Both speed bounds scale by the Taylor constant alpha, which lies in [1, 2]."""
    if not 1.0 <= alpha <= 2.0:
        raise ValueError("alpha must lie in [1, 2]")


class SteadyStateScan:
    """Locate the first c' from which the profile shifts one position per
    window slide, one recorded window at a time: ``add`` each block in
    ascending c, as a run hands them over, then read ``c_prime``,
    ``residual`` and ``tol``.

    For each pair (c, c+1) of recorded windows inside the uniform-channel
    region (c+1 <= N-W+1, no termination effects) and every recorded
    iteration t, the shift mismatch max_z |x_z^(c,t) - x_{z+1}^(c+1,t)|
    and the spatial ordering x_{z+1} >= x_z - tol are evaluated over the
    wave-carrying positions: from w left of the window rightward, with a
    margin of w positions at both chain boundaries. (Positions the window
    left long before c keep the start-up transient frozen forever and say
    nothing about the traveling profile.) c' is the first c of the complying
    pairs after the last pair that does not comply (a NaN mismatch
    included), and the residual is their largest mismatch. ``starts`` holds
    copies of row 0 of windows c' and c'+1, the start states ``bound_a1``
    reads, or None while there is no c'. Only the last block added is kept.
    """

    def __init__(self, spec: CoupledSpec, W: int, tol: float = STEADY_TOL):
        self.w, self.tol = spec.w, tol
        self.interior_last = spec.N - W + 1
        self.z_hi = spec.N - 1  # compare z against z+1, both clear of the right boundary
        self.last: Optional[tuple[int, np.ndarray]] = None
        self.c_prime: Optional[int] = None
        self.residual: Optional[float] = None
        self.starts: Optional[tuple[np.ndarray, np.ndarray]] = None

    def add(self, c: int, block: np.ndarray) -> None:
        """Take window c's block; it pairs with the last one added when that
        was window c-1."""
        last, self.last = self.last, (c, block)
        z_lo, z_hi, tol = max(self.w + 1, c - 1 - self.w), self.z_hi, self.tol
        if last is None or last[0] != c - 1 or c > self.interior_last or z_lo > z_hi:
            return
        cur, nxt = last[1], block
        rows = min(cur.shape[0], nxt.shape[0])
        seg = cur[:rows, z_lo - 1 : z_hi]
        mismatch = float(np.max(np.abs(seg - nxt[:rows, z_lo : z_hi + 1])))
        if not mismatch <= tol or not np.all(cur[:rows, z_lo : z_hi + 1] >= seg - tol):
            self.c_prime = self.residual = self.starts = None
        elif self.c_prime is None:
            self.c_prime, self.residual = c - 1, mismatch
            self.starts = cur[0].copy(), nxt[0].copy()
        else:
            self.residual = max(self.residual, mismatch)


def bound_a1(
    spec: CoupledSpec,
    sched: WindowSchedule,
    c_prime: int,
    x_now: np.ndarray,
    x_next: np.ndarray,
    alpha: float = 1.0,
) -> float:
    """Upper bound on the speed from the potential drop per window slide.

    ``x_now`` and ``x_next`` are the start states (t = 0) of windows c' and
    c'+1 (``SteadyStateScan.starts``). Both potential evaluations use window
    configuration c'; the denominator sums rho'(1-x_z) (x_z - x_{z-1})^2
    over the window at x_now, reading x_0 as zero. alpha is the Taylor
    constant, in [1, 2].
    """
    _check_alpha(alpha)
    num = alpha * (coupled_potential(x_now, spec, sched, c_prime)
                   - coupled_potential(x_next, spec, sched, c_prime))
    seg = slope_segment(x_now, c_prime, sched.W, spec)
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


def bound_th2(
    spec: CoupledSpec,
    W: int,
    land: PotentialLandscape,
    alpha: float = 1.0,
) -> LandscapeBounds:
    """Evaluate the landscape-only speed bounds for window size W.

    Requires the landscape to be taken at the spec's epsilon and to provide
    x_a, x_b, x_c0, x_d and D.
    """
    _check_alpha(alpha)
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
    )


@dataclass(frozen=True)
class SpeedReport:
    """Outcome of a speed measurement at one (epsilon, W) point.

    ``T_min`` is the smallest iterations-per-window count that decodes;
    the wave speed is its reciprocal. Bounds are filled when computable.
    ``best_avg`` is the success policy's metric, the average or the max
    erasure over positions 1..N, of the run at T_min, or of the full run at
    T_max when no T decodes.
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


@dataclass(frozen=True)
class SuccessReport:
    """``metric`` is the value the policy compares: ``avg`` or ``max``."""

    success: bool
    avg: float
    max: float
    metric: float


@dataclass(frozen=True)
class SuccessRule:
    """When a run counts as decoded: the ``average`` policy compares the mean
    erasure over variable positions 1..N against the threshold; ``max`` is
    the stricter worst-position variant."""

    threshold: float = 1e-6
    policy: Literal["average", "max"] = "average"

    def __post_init__(self) -> None:
        if self.policy not in ("average", "max"):
            raise ValueError(f"unknown success policy {self.policy!r}")
        if not self.threshold > 0:  # NaN included
            raise ValueError("success threshold must be positive")


def decode_success(
    final: DEState, spec: CoupledSpec, rule: SuccessRule = SuccessRule()
) -> SuccessReport:
    """Judge decoding from the erasures over variable positions 1..N."""
    region = final.x[: spec.N]
    avg = float(np.mean(region))
    mx = float(np.max(region))
    metric = avg if rule.policy == "average" else mx
    return SuccessReport(success=bool(metric < rule.threshold), avg=avg, max=mx, metric=metric)


class _FrozenPrefixStop:
    """Stop hook of one run of the T search (``Column.stop``). It ends the run
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

    def __init__(self, spec: CoupledSpec, rule: SuccessRule, c_stop: Optional[int] = None):
        self.N, self.rule, self.c_stop = spec.N, rule, c_stop
        self.limit = spec.N * rule.threshold * (1.0 + ABORT_SLACK)
        self.frozen_sum = 0.0
        self.failed_at: Optional[int] = None

    def __call__(self, c: int, x: np.ndarray) -> bool:
        if c <= self.N:
            self.frozen_sum += x[c - 1]
            if (x[c - 1] >= self.rule.threshold if self.rule.policy == "max"
                    else self.frozen_sum >= self.limit):
                self.failed_at = c
        return self.failed_at is not None or c == self.c_stop


def _search(
    spec: CoupledSpec,
    sched: WindowSchedule,
    T_max: int,
    success: SuccessRule,
    steady_tol: Optional[float],
) -> Generator[tuple[Column, bool], DEState, tuple]:
    """One point's T search (``measure_speed``) as a generator: it yields
    each run it needs as ``(column, full)``, where ``full`` marks a run of the
    whole schedule, is sent that run's final state, and returns
    (T, the verdict of the run at T, that run's ``SteadyStateScan``, or None
    when ``steady_tol`` is None)."""
    c_last = sched.c_max(spec)

    def survives(T: int, c_stop: int):
        if T == T_max:
            return True
        stop = _FrozenPrefixStop(spec, success, c_stop)
        final = yield Column(spec, replace(sched, T=T), stop), False
        return stop.failed_at is None and (
            c_stop < c_last or decode_success(final, spec, success).success
        )

    lo, c_stop = sched.T, 1
    while True:
        failed, T = lo - 1, lo
        while not (yield from survives(T, c_stop)):
            failed, T = T, min(2 * T - lo + 1, T_max)
        while T - failed > 1:
            mid = (failed + T) // 2
            if (yield from survives(mid, c_stop)):
                T = mid
            else:
                failed = mid
        stop = None if T == T_max else _FrozenPrefixStop(spec, success)
        scan = None if steady_tol is None else SteadyStateScan(spec, sched.W, steady_tol)
        final = yield Column(spec, replace(sched, T=T), stop,
                             None if scan is None else scan.add), True
        if stop is None or stop.failed_at is None:
            report = decode_success(final, spec, success)
            if report.success or T == T_max:
                return T, report, scan
        lo, c_stop = T + 1, final.c


def _th2_bounds(land: PotentialLandscape, points, alpha: float) -> list[Optional[LandscapeBounds]]:
    """``bound_th2`` of each point ``(spec, sched)`` on ``land``, or None where
    the landscape lacks a critical point."""
    _check_alpha(alpha)  # below, a ValueError of bound_th2 reads as a lacking landscape
    bounds = []
    for spec, sched in points:
        try:
            bounds.append(bound_th2(spec, sched.W, land, alpha=alpha))
        except ValueError:  # the landscape lacks a critical point
            bounds.append(None)
    return bounds


def measure_speed(
    points: Sequence[tuple[CoupledSpec, WindowSchedule]],
    T_max: int = T_MAX_DEFAULT,
    alpha: float = 1.0,
    success: SuccessRule = SuccessRule(),
    steady_tol: float = STEADY_TOL,
    grid_n: int = GRID_N_DEFAULT,
    compute_bounds: bool = True,
) -> list[SpeedReport]:
    """For each point ``(spec, sched)`` of ``points``, which differ only in
    epsilon, W and T (``run_columns``), find the smallest iterations-per-window
    count T from ``sched.T`` up to T_max that decodes; every run of the point
    uses its ``sched`` with T replaced. One report per point, in the order
    given.

    A run "survives prefix c" when ``_FrozenPrefixStop`` has not failed it
    by the end of window c; on the whole schedule it must also decode. A
    decoding run survives every prefix, and survival of a prefix is
    monotone in T (property-tested in ``tests/test_window.py``). So each
    point's search goes in rounds, from prefix 1 and lo = ``sched.T``:

    - gallop through lo, lo+1, lo+3, lo+7, ... (clipped to T_max) until a T
      survives the prefix, then bisect below it. Probes run only the
      prefix's windows; T_max counts as surviving without a probe;
    - run that T on the whole schedule, stopped when it fails (never at
      T_max). When ``compute_bounds`` is on, a fresh ``SteadyStateScan``
      takes each window's block as the run hands it over. If the run
      decodes, T is T_min; if it fails at window c (the last one when only
      the final policy fails), search prefix c from lo = T+1.

    The full run repeats its probe's windows, so it can only fail past the
    prefix: the prefix grows every round. Each round makes one full run,
    T_max included, and nothing is run again after the search: the T_min
    run's scan gives c' and the start states the trajectory bound reads.
    ``sched.T`` = T_max tests one fixed budget with one full run.

    The points' searches run in lockstep as the columns of ``run_columns``:
    the pending probes of every search still going run as one batch, and
    full runs wait until every such search asks for one and then run as one
    batch. The searches are independent, so each point's report is the one a
    group of that point alone gives.

    ``best_avg`` is the success policy's metric of the run at T_min when a
    T decodes, and of the full run at T_max when none does. With
    ``compute_bounds`` the landscape bounds are attached too: before any
    run, each run of consecutive points that share ensemble and epsilon
    reads them from one landscape of ``grid_n`` samples, dropped before the
    next is made. A ``sched.T`` > T_max raises ValueError before that.
    """
    for _, sched in points:
        if sched.T > T_max:
            raise ValueError(f"T range {sched.T}..{T_max} is empty")
    th2s = [None] * len(points)
    if compute_bounds:
        th2s = [th2 for (ens, eps), run in groupby(points, lambda p: (p[0].ens, p[0].epsilon))
                for th2 in _th2_bounds(landscape(eps, ens, grid_n=grid_n), run, alpha)]
    searches = [_search(spec, sched, T_max, success, steady_tol if compute_bounds else None)
                for spec, sched in points]
    pending = {i: next(search) for i, search in enumerate(searches)}
    found = {}
    while pending:
        batch = [i for i, (_, full) in pending.items() if not full] or list(pending)
        finals = run_columns([pending[i][0] for i in batch])
        for i, final in zip(batch, finals):
            try:
                pending[i] = searches[i].send(final)
            except StopIteration as done:
                found[i] = done.value
                del pending[i]
    reports = []
    for i, ((spec, sched), th2) in enumerate(zip(points, th2s)):
        T, verdict, scan = found[i]
        t_min = T if verdict.success else None

        c_prime = a1 = None
        if t_min is not None and scan is not None:
            c_prime = scan.c_prime
            if c_prime is not None:
                try:
                    a1 = bound_a1(spec, sched, c_prime, *scan.starts, alpha=alpha)  # T is not read
                except ZeroDivisionError:  # flat steady profile: A1 is undefined
                    pass

        reports.append(SpeedReport(
            epsilon=spec.epsilon,
            W=sched.W,
            T_min=t_min,
            c_prime=c_prime,
            A1=a1,
            th2_finite=th2.finite_w if th2 else None,
            th2_infinite=th2.infinite_w if th2 else None,
            alpha=alpha,
            success_policy=success.policy,
            T_max=T_max,
            best_avg=verdict.metric,
        ))
    return reports
