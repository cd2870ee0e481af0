"""Degree-distribution polynomials for LDPC ensemble analysis."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

NODE = "node"
EDGE = "edge"

# Distribution normalization is validated, never silently repaired: a
# coefficient vector that does not sum to 1 is a configuration error.
NORMALIZATION_TOL = 1e-12

_MONOMIAL_RE = re.compile(r"^\s*x\s*(?:\^\s*(\d+))?\s*$")


@dataclass(frozen=True)
class DegreePolynomial:
    """Polynomial with real coefficients indexed by degree.

    ``coeffs[i]`` multiplies ``x**i``. ``perspective`` tags distribution
    semantics: a node-perspective distribution needs coefficients in [0, 1]
    summing to 1, an edge-perspective one must evaluate to 1 at x = 1.
    Raw calculus results (formal derivatives) carry ``perspective=None``
    and skip validation.

    Instances are immutable and safe to share across threads.
    """

    coeffs: tuple[float, ...]
    perspective: str | None = None

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", coeffs)
        if self.perspective is None:
            return
        if self.perspective not in (NODE, EDGE):
            raise ValueError(f"unknown perspective {self.perspective!r}")
        for degree, c in enumerate(coeffs):
            if not -NORMALIZATION_TOL <= c <= 1.0 + NORMALIZATION_TOL:
                raise ValueError(
                    f"coefficient {c!r} of x^{degree} lies outside [0, 1]"
                )
        # For non-negative coefficients the sum equals the value at x = 1,
        # so one check covers both perspectives.
        total = sum(coeffs)
        if abs(total - 1.0) > NORMALIZATION_TOL:
            what = "coefficient sum" if self.perspective == NODE else "value at x = 1"
            raise ValueError(
                f"{self.perspective}-perspective {what} is {total!r}, expected 1"
            )

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        """Evaluate by Horner's scheme (works on scalars and numpy arrays).

        A step whose coefficient is zero only multiplies: for x >= 0 and
        non-negative coefficients, acc * x + 0.0 == acc * x bitwise.
        """
        if len(self.coeffs) == 1 and isinstance(x, np.ndarray):
            # a constant has no x term to carry the argument's shape
            return np.full(x.shape, self.coeffs[0])
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c if c else acc * x
        return acc

    def derivative(self) -> "DegreePolynomial":
        """Formal derivative; the result is not renormalized."""
        if len(self.coeffs) == 1:
            return DegreePolynomial((0.0,))
        return DegreePolynomial(
            tuple(i * c for i, c in enumerate(self.coeffs) if i >= 1)
        )

    def to_edge_perspective(self) -> "DegreePolynomial":
        """Return p'(x)/p'(1), the edge-perspective counterpart."""
        if self.perspective != NODE:
            raise ValueError("edge perspective is derived from a node distribution")
        d = self.derivative()
        norm = d(1.0)
        if norm <= 0.0:
            raise ValueError("degenerate distribution: derivative at 1 is zero")
        return DegreePolynomial(tuple(c / norm for c in d.coeffs), perspective=EDGE)


PolySpec = Union[str, Sequence[Sequence[float]], "DegreePolynomial"]


def monomial(k: int, perspective: str = NODE) -> DegreePolynomial:
    """The distribution x^k (all nodes of degree k)."""
    if k < 1:
        raise ValueError(f"monomial degree must be >= 1, got {k}")
    return DegreePolynomial((0.0,) * k + (1.0,), perspective=perspective)


def from_pairs(
    pairs: Iterable[Sequence[float]], perspective: str = NODE
) -> DegreePolynomial:
    """Build a distribution from (degree, coefficient) pairs."""
    dense: dict[int, float] = {}
    for pair in pairs:
        try:
            degree, coeff = pair
        except (TypeError, ValueError):
            raise ValueError(f"expected a (degree, coefficient) pair, got {pair!r}")
        degree = int(degree)
        if degree < 0:
            raise ValueError(f"negative degree {degree}")
        if degree in dense:
            raise ValueError(f"degree {degree} listed twice")
        dense[degree] = float(coeff)
    if not dense:
        raise ValueError("empty coefficient list")
    coeffs = [0.0] * (max(dense) + 1)
    for degree, coeff in dense.items():
        coeffs[degree] = coeff
    return DegreePolynomial(tuple(coeffs), perspective=perspective)


def parse_polynomial(spec: PolySpec, perspective: str = NODE) -> DegreePolynomial:
    """Parse a config-file polynomial: "x^k" shorthand or (degree, coeff) pairs."""
    if isinstance(spec, DegreePolynomial):
        return spec
    if isinstance(spec, str):
        m = _MONOMIAL_RE.match(spec)
        if not m:
            raise ValueError(
                f"cannot parse polynomial {spec!r}: expected 'x^k' shorthand"
            )
        return monomial(int(m.group(1) or 1), perspective=perspective)
    return from_pairs(spec, perspective=perspective)
