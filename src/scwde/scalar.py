"""Density evolution and potential landscape of an uncoupled LDPC ensemble on the BEC."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .poly import DegreePolynomial, PolySpec, monomial, parse_polynomial

# Distribution normalization is validated, never silently repaired: a
# coefficient vector that does not sum to 1 is a configuration error.
NORMALIZATION_TOL = 1e-12
ROOT_TOL = 1e-10
# Fewest landscape grid points that bracket every critical point reliably.
GRID_N_MIN = 1000
# Landscape grid points unless a run asks for another count.
GRID_N_DEFAULT = 10_001


class NonConvergence(RuntimeError):
    """Raised when an iteration fails to converge where convergence is required."""


@dataclass(frozen=True)
class UncoupledEnsemble:
    """LDPC(n, L, R) ensemble with derived edge-perspective distributions.

    ``L`` and ``R`` are node-perspective variable- and check-degree
    distributions, checked at construction: coefficients in [0, 1] summing
    to 1, with some mass above degree 0. ``lam`` and ``rho`` are their
    edge-perspective counterparts L'/L'(1) and R'/R'(1). Immutable.
    """

    L: DegreePolynomial
    R: DegreePolynomial
    lam: DegreePolynomial = field(init=False)
    rho: DegreePolynomial = field(init=False)
    lam_d1: DegreePolynomial = field(init=False)
    rho_d1: DegreePolynomial = field(init=False)
    rho_d2: DegreePolynomial = field(init=False)
    L_prime_1: float = field(init=False)
    R_prime_1: float = field(init=False)

    def __post_init__(self) -> None:
        for name, p in (("L", self.L), ("R", self.R)):
            for degree, c in enumerate(p.coeffs):
                if not -NORMALIZATION_TOL <= c <= 1.0 + NORMALIZATION_TOL:
                    raise ValueError(
                        f"{name}: coefficient {c!r} of x^{degree} lies outside [0, 1]"
                    )
            total = sum(p.coeffs)
            if abs(total - 1.0) > NORMALIZATION_TOL:
                raise ValueError(f"{name}: coefficient sum is {total!r}, expected 1")
            prime_1 = p.derivative()(1.0)
            if not prime_1 > 0.0:
                raise ValueError(f"{name}: degenerate distribution: derivative at 1 is zero")
            object.__setattr__(self, f"{name}_prime_1", prime_1)
        lam = self.L.to_edge_perspective()
        rho = self.R.to_edge_perspective()
        object.__setattr__(self, "lam", lam)
        object.__setattr__(self, "rho", rho)
        object.__setattr__(self, "lam_d1", lam.derivative())
        object.__setattr__(self, "rho_d1", rho.derivative())
        object.__setattr__(self, "rho_d2", rho.derivative().derivative())

    @classmethod
    def regular(cls, l_degree: int, r_degree: int) -> "UncoupledEnsemble":
        """The (l, r)-regular ensemble with L = x^l and R = x^r."""
        return cls(monomial(l_degree), monomial(r_degree))

    @classmethod
    def from_specs(cls, L: PolySpec, R: PolySpec) -> "UncoupledEnsemble":
        return cls(parse_polynomial(L), parse_polynomial(R))

    def label(self) -> str:
        """Short name for file stems, e.g. ``x3_x6`` for the (3,6) ensemble."""

        def one(p: DegreePolynomial) -> str:
            nonzero = [i for i, c in enumerate(p.coeffs) if c != 0.0]
            if len(nonzero) == 1:
                return f"x{nonzero[0]}"
            return "irr" + "".join(str(i) for i in nonzero)

        return f"{one(self.L)}_{one(self.R)}"


def de_step(x, epsilon: float, ens: UncoupledEnsemble):
    """One erasure-rate update: eps * lam(1 - rho(1 - x)).

    Accepts scalars or numpy arrays; maps [0, 1] into [0, eps].
    """
    return epsilon * ens.lam(1.0 - ens.rho(1.0 - x))


def _bisect(f, lo: float, hi: float, f_lo: float, tol: float) -> float:
    """Bisect [lo, hi] for a sign change of ``f``, whose value at ``lo`` the
    caller passes as ``f_lo``. Returns a midpoint where ``f`` is exactly 0 at
    once, else the midpoint of the final bracket, at most ``tol`` wide."""
    while hi - lo > tol:
        mid = 0.5 * (lo + hi)
        f_mid = f(mid)
        if f_mid == 0.0:
            return mid
        if f_lo * f_mid < 0.0:
            hi = mid
        else:
            lo, f_lo = mid, f_mid
    return 0.5 * (lo + hi)


def potential(x, epsilon: float, ens: UncoupledEnsemble):
    """Potential function U(x; eps) of the uncoupled ensemble.

    U = (1/R'(1)) (1 - R(1-x)) - x rho(1-x) - (eps/L'(1)) L(1 - rho(1-x)).
    Zero at x = 0 for every epsilon; stationary exactly at DE fixed points.
    """
    one_minus_x = 1.0 - x
    rho_val = ens.rho(one_minus_x)
    return (
        (1.0 - ens.R(one_minus_x)) / ens.R_prime_1
        - x * rho_val
        - (epsilon / ens.L_prime_1) * ens.L(1.0 - rho_val)
    )


def potential_d1(x, epsilon: float, ens: UncoupledEnsemble):
    """Analytic dU/dx = rho'(1-x) * (x - de_step(x))."""
    return ens.rho_d1(1.0 - x) * (x - de_step(x, epsilon, ens))


def potential_d2(x, epsilon: float, ens: UncoupledEnsemble):
    """Analytic d2U/dx2 via the chain rule on the closed form of dU/dx."""
    one_minus_x = 1.0 - x
    inner = 1.0 - ens.rho(one_minus_x)
    rho_d1 = ens.rho_d1(one_minus_x)
    gap = x - epsilon * ens.lam(inner)
    gap_d1 = 1.0 - epsilon * ens.lam_d1(inner) * rho_d1
    return -ens.rho_d2(one_minus_x) * gap + rho_d1 * gap_d1


@dataclass(frozen=True)
class PotentialLandscape:
    """Sampled potential with located critical points.

    ``x_b``/``x_d`` are the unstable/stable nontrivial stationary points
    (zeros of U'), ``x_a`` < ``x_c0`` < ``x_e`` the inflection points
    (zeros of U''), any of which may be absent. ``D`` is the maximum of
    |U''| over (0, x_d), reported only when x_d exists.
    """

    epsilon: float
    x: np.ndarray
    U: np.ndarray
    U1: np.ndarray
    U2: np.ndarray
    d1_roots: tuple[float, ...]
    d2_roots: tuple[float, ...]
    x_a: Optional[float]
    x_b: Optional[float]
    x_c0: Optional[float]
    x_d: Optional[float]
    x_e: Optional[float]
    D: Optional[float]

    def missing(self) -> tuple[str, ...]:
        names = ("x_a", "x_b", "x_c0", "x_d", "x_e")
        return tuple(n for n in names if getattr(self, n) is None)


_INV_GOLDEN = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_max(f, lo: float, hi: float) -> tuple[float, float]:
    """Golden-section maximization of a unimodal f on [lo, hi], to ROOT_TOL."""
    a, b = lo, hi
    c = b - _INV_GOLDEN * (b - a)
    d = a + _INV_GOLDEN * (b - a)
    fc, fd = f(c), f(d)
    while b - a > ROOT_TOL:
        if fc > fd:
            b, d, fd = d, c, fc
            c = b - _INV_GOLDEN * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + _INV_GOLDEN * (b - a)
            fd = f(d)
    x_best = c if fc > fd else d
    return x_best, f(x_best)


# Sign changes where both endpoint magnitudes sit below this floor are
# rounding noise (e.g. U'' underflowing toward x = 1), not crossings.
_BRACKET_NOISE_FLOOR = 1e-13


def _grid_roots(f, xs: np.ndarray, values: np.ndarray) -> list[float]:
    """Zeros of ``f`` on the open grid cells from xs[1]: a grid point where
    ``values`` is exactly 0, or a cell whose ends change sign above the noise
    floor, refined by bisection."""
    a, b = values[1:-1], values[2:]
    crossing = (a * b < 0.0) & (np.maximum(np.abs(a), np.abs(b)) > _BRACKET_NOISE_FLOOR)
    return [
        float(xs[i]) if values[i] == 0.0
        else _bisect(f, float(xs[i]), float(xs[i + 1]), float(values[i]), ROOT_TOL)
        for i in 1 + np.flatnonzero((a == 0.0) | crossing)
    ]


def landscape(
    epsilon: float,
    ens: UncoupledEnsemble,
    grid_n: int = GRID_N_DEFAULT,
) -> PotentialLandscape:
    """Scan [0, 1], bracket the zeros of U' and U'', and refine by bisection.

    The trivial stationary point at x = 0 (and the prefactor zero of U'
    at x = 1) are excluded. ``D`` is taken as the grid maximum of |U''|
    over (0, x_d) refined by a local golden-section search.
    """
    if grid_n < GRID_N_MIN:
        raise ValueError(f"grid_n must be >= {GRID_N_MIN} for reliable bracketing")
    xs = np.linspace(0.0, 1.0, grid_n)
    U = potential(xs, epsilon, ens)
    U1 = potential_d1(xs, epsilon, ens)
    U2 = potential_d2(xs, epsilon, ens)

    d1_roots = _grid_roots(lambda t: potential_d1(t, epsilon, ens), xs, U1)
    d2_roots = _grid_roots(lambda t: potential_d2(t, epsilon, ens), xs, U2)

    x_b = x_d = None
    if len(d1_roots) >= 2:
        x_b, x_d = d1_roots[0], d1_roots[-1]

    x_a = x_c0 = x_e = None
    if x_b is not None and x_d is not None:
        below = [r for r in d2_roots if r < x_b]
        between = [r for r in d2_roots if x_b < r < x_d]
        above = [r for r in d2_roots if r > x_d]
        x_a = below[-1] if below else None
        x_c0 = between[0] if between else None
        x_e = above[0] if above else None

    D = None
    if x_d is not None:

        def curvature_mag(t: float) -> float:
            return abs(potential_d2(t, epsilon, ens))

        inside = np.flatnonzero((xs > 0.0) & (xs < x_d))
        if inside.size:
            i = inside[np.argmax(np.abs(U2[inside]))]
            lo = float(xs[max(i - 1, 0)])
            hi = float(min(xs[i + 1], x_d))
            _, D = _golden_max(curvature_mag, lo, hi)
            D = max(D, float(np.max(np.abs(U2[inside]))))

    return PotentialLandscape(
        epsilon=epsilon,
        x=xs,
        U=np.asarray(U),
        U1=np.asarray(U1),
        U2=np.asarray(U2),
        d1_roots=tuple(d1_roots),
        d2_roots=tuple(d2_roots),
        x_a=x_a,
        x_b=x_b,
        x_c0=x_c0,
        x_d=x_d,
        x_e=x_e,
        D=D,
    )


def _fixed_point_channel(x, ens: UncoupledEnsemble):
    """The channel eps(x) = x / lam(1 - rho(1 - x)) at which x is a DE fixed point."""
    return x / ens.lam(1.0 - ens.rho(1.0 - x))


def _fixed_point_curve(ens: UncoupledEnsemble) -> tuple[np.ndarray, np.ndarray]:
    """eps(x) sampled on the landscape grid over (0, 1]."""
    xs = np.linspace(0.0, 1.0, GRID_N_DEFAULT)[1:]
    return xs, _fixed_point_channel(xs, ens)


def bp_threshold(ens: UncoupledEnsemble) -> float:
    """Largest erasure probability for which DE from x = 1 drives x to 0:
    the minimum of eps(x) over (0, 1].

    The grid minimum is refined by golden section. The infimum may sit at
    x -> 0+: there eps(x) tends to 0 with degree-1 variable nodes, and to the
    stability limit 1 / (lam'(0) rho'(1)) with degree-2 ones.
    """
    if ens.lam(0.0) > 0.0:
        return 0.0
    xs, eps = _fixed_point_curve(ens)
    i = int(np.argmin(eps))
    lo, hi = float(xs[max(i - 1, 0)]), float(xs[min(i + 1, xs.size - 1)])
    _, neg_min = _golden_max(lambda x: -_fixed_point_channel(x, ens), lo, hi)
    eps_bp = -neg_min
    if ens.lam_d1(0.0) > 0.0:
        eps_bp = min(eps_bp, 1.0 / (ens.lam_d1(0.0) * ens.rho_d1(1.0)))
    return eps_bp


def map_threshold(ens: UncoupledEnsemble) -> float:
    """Erasure probability where U at the stable DE fixed point crosses zero.

    The fixed points DE reaches from x = 1 are the x where eps(x) equals its
    minimum over [x, 1]; along them, in ascending x, the channel rises from
    the BP threshold. The first grid point where U(x; eps(x)) is negative is
    refined by bisection against the point before it. Below the BP threshold
    DE reaches 0, where U is 0, so U negative from the branch's first point
    on, as for (2,4), puts the MAP threshold at the BP threshold.
    """
    xs, eps = _fixed_point_curve(ens)
    stable = eps == np.minimum.accumulate(eps[::-1])[::-1]
    xs, eps = xs[stable], eps[stable]
    U = potential(xs, eps, ens)
    negative = np.flatnonzero(U < 0.0)
    if not negative.size:
        raise NonConvergence(
            "potential at the stable fixed point never turns negative on [0, 1]"
        )
    k = int(negative[0])
    if k == 0:
        return bp_threshold(ens)
    x_star = _bisect(
        lambda x: potential(x, _fixed_point_channel(x, ens), ens),
        float(xs[k - 1]), float(xs[k]), float(U[k - 1]), ROOT_TOL,
    )
    return float(_fixed_point_channel(x_star, ens))
