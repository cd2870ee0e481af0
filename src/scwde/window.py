"""Windowed density evolution for spatially coupled LDPC ensembles on the BEC."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Literal, NamedTuple, Optional, Sequence

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
    is updated too (needed for the average erasure to reach ~0). The
    variant has no default here; a run config's ``schedule`` has the one.

    ``T_first`` optionally gives the first window a larger iteration
    budget (a common warm start that removes the ignition transient);
    None keeps the uniform schedule.
    """

    W: int
    T: int
    variant: ScheduleVariant
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
            raise ValueError(f"window size W={self.W} exceeds coupling length N={spec.N}")

    def c_max(self, spec: CoupledSpec) -> int:
        if self.variant == "literal":
            return spec.N - self.W + 1
        return spec.N + spec.w - self.W

    def iterations_for(self, c: int) -> int:
        if c == 1 and self.T_first is not None:
            return self.T_first
        return self.T


class ChainCheckError(ArithmeticError):
    """A run broke a property of the exact recursion: an erasure rose
    during the sweeps, left [0, 1], or changed outside the window."""


@dataclass(frozen=True)
class DEState:
    """Erasure vector over check positions 1..N+w-1 after window c."""

    x: np.ndarray
    c: int


def _padded(x: np.ndarray, w: int) -> np.ndarray:
    """Values at positions 1-w..n+w along the first axis (n = its length):
    position p sits at index p+w-1.

    The w zero ghost positions on each side cover every read of the window
    kernel (w-1 beyond the chain).
    """
    shape = np.shape(x)
    buf = np.zeros((shape[0] + 2 * w,) + shape[1:])
    buf[w : w + shape[0]] = x
    return buf


def _channel_profile(spec: CoupledSpec, epsilons: Sequence[float]) -> np.ndarray:
    """Erasure probability in the padded layout, one column per value of
    ``epsilons``: that value on positions 1..N only."""
    eps = np.zeros((spec.N + 2 * spec.w, len(epsilons)))
    eps[spec.w : spec.w + spec.N] = epsilons
    return eps


def window_check_stage(x: np.ndarray, c: int, W: int, spec: CoupledSpec) -> tuple:
    """Window c's reads and channel (``_window_views``) of a chain vector, or
    of a block of them along the last axis (zero outside 1..N+w-1), with
    ``_check_stage`` between them: (reads, rho(1-x), channel, S_u), each
    positions-major with one column per state."""
    states = np.reshape(x, (-1, np.shape(x)[-1])).T
    reads, eps_u = _window_views(_padded(states, spec.w), _channel_profile(spec, [spec.epsilon]),
                                 c, W, spec.w)
    ws = _Workspace(spec, W, reads.shape[1:])
    _check_stage(ws, reads)
    return reads, ws.rho_vals, eps_u, ws.s


def _window_views(buf: np.ndarray, eps: np.ndarray, c: int, W: int, w: int) -> tuple:
    """Views of window c on the padded layout and channel profile (first
    axis): the erasures at positions c-w+1..c+W+w-2, and the channel at the
    check positions u = c-w+1..c+W-1."""
    return buf[c : c + W + 2 * w - 2], eps[c : c + W + w - 1]


class _Workspace:
    """The buffers every step of a sweep writes, for reads of shape
    ``(W+2w-2,) + cols``. A moving mean sums into ``cs`` after its leading 0
    and divides differences of two views of it: x - 0.0 == x, so the means
    round as a cumulative sum's differences (the first one a copy) did.
    Each column is summed on its own, in position order, so a column rounds
    as the same chain run alone does."""

    def __init__(self, spec: CoupledSpec, W: int, cols: tuple) -> None:
        w, n = spec.w, W + 2 * spec.w - 2
        self.rho, self.lam = spec.ens.rho, spec.ens.lam
        self.one, self.width = np.ones(()), np.array(float(w))
        self.one_minus_x, self.rho_vals = np.empty((n,) + cols), np.empty((n,) + cols)
        self.s, self.one_minus_s, self.f = (np.empty((n - w + 1,) + cols) for _ in range(3))
        cs = np.zeros((n + 1,) + cols)
        self.check_sums = cs[1:], cs[w:], cs[:-w]
        self.var_sums = cs[1 : n - w + 2], cs[w : n - w + 2], cs[: n - 2 * w + 2]


def _check_stage(ws: _Workspace, reads: np.ndarray) -> None:
    """rho(1-x) of the erasures window c reads, and the check averages S_u,
    the mean of rho(1-x) over u..u+w-1, into ``ws.rho_vals`` and ``ws.s``.
    Shared by the DE update and the coupled potential."""
    np.subtract(ws.one, reads, ws.one_minus_x)
    ws.rho(ws.one_minus_x, ws.rho_vals)
    acc, hi, lo = ws.check_sums
    np.add.accumulate(ws.rho_vals, 0, None, acc)
    np.subtract(hi, lo, ws.s)
    np.divide(ws.s, ws.width, ws.s)


def _window_kernel(ws: _Workspace, reads: np.ndarray, eps_u: np.ndarray, out: np.ndarray) -> None:
    """New erasure values for the in-window positions z = c..c+W-1 from
    window c's views (``_window_views``), written to ``out``. Every neighbor
    read comes from the views (flooding update); positions outside 1..N+w-1
    read as zero."""
    _check_stage(ws, reads)
    np.subtract(ws.one, ws.s, ws.one_minus_s)
    ws.lam(ws.one_minus_s, ws.f)
    np.multiply(ws.f, eps_u, ws.f)  # rounds as eps_u * f
    acc, hi, lo = ws.var_sums
    np.add.accumulate(ws.f, 0, None, acc)
    np.subtract(hi, lo, out)
    np.divide(out, ws.width, out)


class Column(NamedTuple):
    """One chain of ``run_columns``: its ensemble and channel, its schedule,
    and the hooks ``run_columns`` calls for this chain alone."""

    spec: CoupledSpec
    sched: WindowSchedule
    stop: Optional[Callable[[int, np.ndarray], bool]] = None
    on_block: Optional[Callable[[int, np.ndarray], None]] = None


def run_wd(
    spec: CoupledSpec,
    sched: WindowSchedule,
    validate: bool,
    on_block: Optional[Callable[[int, np.ndarray], None]] = None,
) -> tuple[DEState, None]:
    """Run the window schedule on one chain: the one column of
    ``run_columns``, whose hooks and checks it documents.

    The returned pair holds the vector after the last window, as a
    ``DEState``, and None. The None, and ``validate``, ignored since every
    run is checked, are kept for callers that unpack two items and pass it.
    """
    (final,) = run_columns([Column(spec, sched, on_block=on_block)])
    return final, None


def run_columns(columns: Sequence[Column]) -> list[DEState]:
    """Run chains that share ens, N, w, the variant and ``T_first``, and
    differ in epsilon, W and T, as the columns of one windowed run: T_c
    sweeps at each configuration c, up to the chain's own last one. Return
    each chain's final ``DEState``, in the order given: the vector after the
    last window it ran, and that window's c.

    The padded layout holds a column per chain, positions-major. Window c
    copies the chains' read span, as wide as the widest window, once into
    ``span``, a layer per sweep: sweep t reads layer t-1 and writes the
    window rows of layer t, and each chain takes its last layer when the
    window ends. Every live column sweeps up to the largest T_c, and takes
    layer T_c. Each column rounds as its chain run alone does: its first W
    rows of a wider block are summed as its own, and only those are written.

    Each column's hooks see that chain alone. ``on_block(c, block)`` is
    called after every window c with a new read-only (T_c+1, N+w-1) array of
    its iterations t = 0..T_c; it is the only way blocks leave a run.
    ``stop(c, x)`` is called once after each window c, after ``on_block``,
    with the chain's live erasure vector, which it must not write to; a true
    result takes the chain out of the run there, with a copy of its vector.
    The run ends when no chain is left.

    Every window is checked against the exact recursion when it ends,
    before the chain or a hook sees it, over every sweep it runs, past a
    column's T_c too: a rise or a value outside [0, 1] (NaN included) in the
    rows a column owns raises ``ChainCheckError`` naming the first sweep
    that shows it; so does a change to a read outside a column's window.
    Both checks read masks made once per set of live columns.
    """
    spec, sched = columns[0].spec, columns[0].sched
    shared = (spec.ens, spec.N, spec.w, sched.variant, sched.T_first)
    for col in columns:
        col.sched.validate(col.spec)
        if (col.spec.ens, col.spec.N, col.spec.w, col.sched.variant, col.sched.T_first) != shared:
            raise ValueError("columns must differ only in epsilon, W and T")
    w, L = spec.w, spec.chain_len
    live, index = list(columns), list(range(len(columns)))
    buf = _padded(np.ones((L, len(live))), w)
    eps = _channel_profile(spec, [col.spec.epsilon for col in live])
    finals: list[Optional[DEState]] = [None] * len(columns)
    for c in range(1, max(col.sched.c_max(spec) for col in columns) + 1):
        if c == 1 or len(keep) < len(live):  # the live columns' views, new after one leaves
            if c > 1:
                buf, eps = buf[:, keep].copy(), eps[:, keep].copy()
                live, index = [live[j] for j in keep], [index[j] for j in keep]
            x_cols = [buf[w : w + L, j] for j in range(len(live))]
            Ws = [col.sched.W for col in live]
            W = max(Ws)
            # the read-span rows each column owns: its window, starting at row w-1
            window_row = np.arange(W + 2 * w - 2)[:, None] - (w - 1)
            owned = (window_row >= 0) & (window_row < Ws)
            unowned = ~owned
            own = owned[w - 1 : w - 1 + W]  # no sweep writes past a column's window
            ws, new_vals = _Workspace(spec, W, (len(live),)), np.empty(own.shape)
        lo, Ts = c - 1, [col.sched.iterations_for(c) for col in live]
        reads, eps_u = _window_views(buf, eps, c, W, w)
        span = np.broadcast_to(reads, (max(Ts) + 1,) + reads.shape).copy()
        with np.errstate(all="ignore"):  # a fault raises at its window's end, past any overflow
            for t in range(1, max(Ts) + 1):
                _window_kernel(ws, span[t - 1], eps_u, new_vals)
                np.copyto(span[t, w - 1 : w - 1 + W], new_vals, where=own)
        new, old = span[1:], span[:-1]
        # no rise and none above 1 in one comparison; NaN fails both
        ok = ((new <= np.minimum(old, 1.0) + MONOTONE_SLACK) & (new >= -MONOTONE_SLACK)) | unowned
        if not ok.all():
            t = int((~ok).any(axis=(1, 2)).argmax())
            rise = ((new[t] > old[t] + MONOTONE_SLACK) & owned).any()
            raise ChainCheckError(f"erasure increased within window c={c}, t={t + 1}"
                                  if rise else "erasure left [0, 1]")
        # a sweep reaches a read outside its window only through the layers before the
        # last, so that one keeps the chain's value and a change shows in two adjacent layers
        if not ((new == old) | owned).all():
            raise ChainCheckError("out-of-window positions changed during sweeps")
        keep = []
        for j, col in enumerate(live):
            rows = span[: Ts[j] + 1, w - 1 : w - 1 + Ws[j], j]
            x_cols[j][lo : lo + Ws[j]] = rows[-1]
            if col.on_block is not None:
                block = np.broadcast_to(x_cols[j], (Ts[j] + 1, L)).copy()
                block[:, lo : lo + Ws[j]] = rows
                block.flags.writeable = False
                col.on_block(c, block)
            if (col.stop is not None and col.stop(c, x_cols[j])) or c == col.sched.c_max(spec):
                finals[index[j]] = DEState(x=x_cols[j].copy(), c=c)
            else:
                keep.append(j)
        if not keep:
            break
    return finals
