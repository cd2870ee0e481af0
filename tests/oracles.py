"""Test oracles for the windowed engine, written position by position from
the definitions.

Each reads a chain vector x over check positions 1..N+w-1 one position at a
time, with x read as zero outside that range and the channel eps_u = eps
only on 1..N. They call the ensemble's polynomials and nothing of the window
kernel, so a check against them does not share the code it checks.
The steady-state oracle reads a recorded run whole, from its last window
pair down, where the package scans it window by window forward.
``recorded_run`` collects a run's blocks for the tests that read them whole,
and ``scan_of`` feeds such blocks to the package's forward scan.
``de_limit`` runs uncoupled DE from x = 1, and the ``*_by_de_bisection``
thresholds bisect over the channel on where it stops, where the package
reads both thresholds off the fixed-point curve.

The ``*_out_of_place`` helpers are a different kind of oracle: they repeat
the engine's order of operations, each step on new arrays, so that a
bitwise comparison checks that the engine's buffered steps round exactly
as plain arithmetic does. ``SWEEP_ENSEMBLES`` are the ensembles those
comparisons run over.
"""

import numpy as np

from scwde.poly import from_pairs
from scwde.scalar import UncoupledEnsemble, de_step, potential
from scwde.speed import STEADY_TOL, SteadyStateScan
from scwde.window import Column, run_columns

SWEEP_ENSEMBLES = [
    UncoupledEnsemble.regular(3, 6),
    UncoupledEnsemble.regular(4, 8),
    UncoupledEnsemble(L=from_pairs([(1, 1.0)]), R=from_pairs([(3, 1.0)])),  # lambda = 1
    UncoupledEnsemble(L=from_pairs([(2, 0.4), (3, 0.6)]), R=from_pairs([(5, 0.5), (6, 0.5)])),
    UncoupledEnsemble(L=from_pairs([(2, 0.3), (5, 0.7)]), R=from_pairs([(4, 0.25), (7, 0.75)])),
]

# A DE limit below this is the zero fixed point; the nontrivial fixed points
# of the ensembles checked sit many orders of magnitude higher (~1e-1).
ZERO_LIMIT = 1e-9


def de_limit(epsilon, ens, tol=1e-12, max_iter=100_000):
    """Uncoupled DE from x = 1: ``de_step`` iterated until a step is below
    ``tol``, x reaches 0, or ``max_iter`` steps are taken."""
    x = 1.0
    for _ in range(max_iter):
        x_next = de_step(x, epsilon, ens)
        step, x = x - x_next, x_next
        if x == 0.0 or step < tol:
            break
    return x


def _bisect_channel(holds, tol=1e-6):
    """The midpoint of the final bracket, at most ``tol`` wide, of a
    bisection over eps in [0, 1] for where ``holds(eps)`` turns false."""
    lo, hi = 0.0, 1.0
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bp_by_de_bisection(ens):
    """Largest eps at which DE from x = 1 reaches the zero fixed point."""
    return _bisect_channel(lambda eps: de_limit(eps, ens) < ZERO_LIMIT)


def map_by_de_bisection(ens):
    """Largest eps at which U at the DE limit from x = 1 is non-negative;
    U is exactly 0 at the zero fixed point."""

    def non_negative(eps):
        x = de_limit(eps, ens)
        return x < ZERO_LIMIT or potential(x, eps, ens) >= 0.0

    return _bisect_channel(non_negative)


def recorded_run(spec, sched, stop=None, record_windows=None):
    """(final state, {c: block}) of a one-column run: the read-only
    (T_c+1, N+w-1) block ``on_block`` gets for each window c among
    ``record_windows`` (every window when None)."""
    blocks = {}

    def collect(c, block):
        if record_windows is None or c in record_windows:
            blocks[c] = block

    [final] = run_columns([Column(spec, sched, stop, collect)])
    return final, blocks


def scan_of(blocks, spec, W, tol=STEADY_TOL):
    """A ``SteadyStateScan`` fed a run's blocks {c: block} in ascending c."""
    scan = SteadyStateScan(spec, W, tol)
    for c in sorted(blocks):
        scan.add(c, blocks[c])
    return scan


def horner_out_of_place(p, x):
    """DegreePolynomial.__call__ with a new array at every step."""
    if len(p.coeffs) == 1 and isinstance(x, np.ndarray):
        return np.full(x.shape, p.coeffs[0])
    acc = p.coeffs[-1]
    for c in reversed(p.coeffs[:-1]):
        acc = acc * x + c if c else acc * x
    return acc


def horner_into_with_floats(p, x, out):
    """DegreePolynomial.__call__ into ``out`` (of at least two coefficients),
    each coefficient a Python float operand of an in-place ufunc step."""
    coeffs = p.coeffs
    out[...] = x
    acc = out if coeffs[-1] == 1.0 else np.multiply(out, coeffs[-1], out)
    for c in reversed(coeffs[1:-1]):
        if c:
            acc += c
        acc *= x
    if coeffs[0]:
        acc += coeffs[0]
    return acc


def moving_mean_out_of_place(v, width):
    """Means over ``width`` consecutive entries along the last axis, as
    differences of a cumulative sum."""
    cs = np.cumsum(v, axis=-1)
    out = cs[..., width - 1 :].copy()
    out[..., 1:] -= cs[..., :-width]
    return out / width


def window_reads_out_of_place(x, c, W, spec):
    """Window c's reads of a chain vector or a block of them (last axis):
    the erasures at positions c-w+1..c+W+w-2, zero outside the chain, and
    the channel at u = c-w+1..c+W-1."""
    w = spec.w
    ghosts = np.zeros(np.shape(x)[:-1] + (w,))
    reads = np.concatenate([ghosts, x, ghosts], axis=-1)[..., c : c + W + 2 * w - 2]
    channel = np.concatenate([np.zeros(w), np.full(spec.N, spec.epsilon), np.zeros(w)])
    return reads, channel[c : c + W + w - 1]


def update_out_of_place(x, c, W, spec):
    """The windowed DE map at z = c..c+W-1 in the engine's order of
    operations, each step on new arrays; x reads as zero outside the chain."""
    w, ens = spec.w, spec.ens
    reads, eps_u = window_reads_out_of_place(x, c, W, spec)
    s = moving_mean_out_of_place(horner_out_of_place(ens.rho, 1.0 - reads), w)
    return moving_mean_out_of_place(eps_u * horner_out_of_place(ens.lam, 1.0 - s), w)


def _reader(x, spec):
    """x_p at check position p: zero outside 1..N+w-1."""
    return lambda p: float(x[p - 1]) if 1 <= p <= spec.chain_len else 0.0


def update_by_definition(x, c, W, spec):
    """The windowed DE map f at z = c..c+W-1, one position at a time.

    x_z <- (1/w) sum_{i<w} eps_{z-i} lam(1 - (1/w) sum_{j<w} rho(1 - x_{z-i+j})).
    """
    w, ens, read = spec.w, spec.ens, _reader(x, spec)

    def channel(u):
        return spec.epsilon if 1 <= u <= spec.N else 0.0

    out = []
    for z in range(c, c + W):
        total = 0.0
        for u in range(z - w + 1, z + 1):
            s = sum(ens.rho(1.0 - read(u + j)) for j in range(w)) / w
            total += channel(u) * ens.lam(1.0 - s)
        out.append(total / w)
    return np.array(out)


def gradient_by_definition(x, c, W, spec):
    """Partial derivatives of the coupled potential under window
    configuration c at the in-window positions z = c..c+W-1:
    rho'(1 - x_z) (x_z - f(z, x)), with f the windowed DE map. They vanish
    exactly at fixed points of that map."""
    f = update_by_definition(x, c, W, spec)
    return np.array([spec.ens.rho_d1(1.0 - float(x[z - 1])) * (float(x[z - 1]) - f_z)
                     for z, f_z in zip(range(c, c + W), f)])


def delta_u1_by_definition(y, x, c, W, spec):
    """First-order Taylor term of the coupled potential at x toward y:
    sum over z = c..c+W-1 of the gradient at x times (y_z - x_z)."""
    grad = gradient_by_definition(x, c, W, spec)
    return float(sum(g * (float(y[z - 1]) - float(x[z - 1]))
                     for z, g in zip(range(c, c + W), grad)))


def slope_sum_by_definition(x, c, W, spec):
    """The denominator of A1 at window c, one position at a time:
    sum over z = c..c+W-1 of rho'(1 - x_z) (x_z - x_{z-1})^2, with x_0 read
    as zero."""
    ens, read = spec.ens, _reader(x, spec)
    return sum(ens.rho_d1(1.0 - read(z)) * (read(z) - read(z - 1)) ** 2
               for z in range(c, c + W))


def slope_margins(x, c, W, spec):
    """Profile-slope margins at z = c..c+W-1:
    (x_z - x_{z-1}) - |x_z - eps lam(1 - rho(1 - x_z))| / w, with x_0 read
    as zero. The slope bound holds where every margin is >= 0, up to
    rounding."""
    ens, read = spec.ens, _reader(x, spec)
    return np.array([
        (read(z) - read(z - 1))
        - abs(read(z) - spec.epsilon * ens.lam(1.0 - ens.rho(1.0 - read(z)))) / spec.w
        for z in range(c, c + W)
    ])


def steady_state_by_backward_scan(blocks, spec, W, tol):
    """(c', residual) of a run's recorded blocks {c: block} at window size W,
    scanned from the last window pair down: the pairs (c, c+1) of recorded
    windows with c+1 <= N-W+1 are checked from the last one down until one
    does not comply (a NaN mismatch included), and c' is the c of the last
    complying pair scanned.
    A pair complies where, over every iteration both record and positions
    z = max(w+1, c-w)..N-1, the shift mismatch |x_z^(c,t) - x_{z+1}^(c+1,t)|
    is at most tol and x_{z+1}^(c,t) >= x_z^(c,t) - tol."""
    w, N = spec.w, spec.N
    recorded = set(blocks)
    interior_last = N - W + 1
    z_hi = N - 1
    c_prime = residual = None
    for c in sorted(recorded, reverse=True):
        z_lo = max(w + 1, c - w)
        if c + 1 not in recorded or c + 1 > interior_last or z_lo > z_hi:
            continue
        cur, nxt = blocks[c], blocks[c + 1]
        rows = min(cur.shape[0], nxt.shape[0])
        seg = cur[:rows, z_lo - 1 : z_hi]
        mismatch = float(np.max(np.abs(seg - nxt[:rows, z_lo : z_hi + 1])))
        if not mismatch <= tol or not np.all(cur[:rows, z_lo : z_hi + 1] >= seg - tol):
            break
        c_prime = c
        residual = mismatch if residual is None else max(residual, mismatch)
    return c_prime, residual
