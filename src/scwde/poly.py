"""Degree-distribution polynomials for LDPC ensemble analysis."""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

_MONOMIAL_RE = re.compile(r"^\s*x\s*(?:\^\s*(\d+))?\s*$")


@dataclass(frozen=True)
class DegreePolynomial:
    """Polynomial with real coefficients indexed by degree.

    ``coeffs[i]`` multiplies ``x**i``. Whether a pair of polynomials forms
    a valid degree distribution is checked by ``UncoupledEnsemble``.

    Instances are immutable and safe to share across threads.
    """

    coeffs: tuple[float, ...]

    def __post_init__(self) -> None:
        coeffs = tuple(float(c) for c in self.coeffs)
        if not coeffs:
            raise ValueError("polynomial needs at least one coefficient")
        object.__setattr__(self, "coeffs", coeffs)
        # the buffered path's operands, as a ufunc converts a Python float on every
        # call; a zero, whose step is skipped, stays a float for a cheap truth test
        object.__setattr__(self, "_coeff_arrays", tuple(np.array(c) if c else c for c in coeffs))

    def __call__(self, x, out=None):
        """Evaluate by Horner's scheme (works on scalars and numpy arrays).

        The first product is a new object, or ``out`` (shaped like x, not x itself;
        a leading 1 copies x there, as 1.0 * x == x), so the later steps update it
        in place and never write to x; each still rounds acc * x, then + c. A step
        whose coefficient is zero only multiplies: for x >= 0 and non-negative
        coefficients, acc * x + 0.0 == acc * x bitwise.
        """
        coeffs = self.coeffs
        if len(coeffs) == 1:
            # a constant has no x term to carry the argument's shape
            if out is not None:
                out.fill(coeffs[0])
                return out
            return np.full(x.shape, coeffs[0]) if isinstance(x, np.ndarray) else coeffs[0]
        if out is None:
            acc = coeffs[-1] * x
        else:
            out[...] = x
            acc = out if coeffs[-1] == 1.0 else np.multiply(out, self._coeff_arrays[-1], out)
            coeffs = self._coeff_arrays
        for c in reversed(coeffs[1:-1]):
            if c:
                acc += c
            acc *= x
        if coeffs[0]:
            acc += coeffs[0]
        return acc

    def derivative(self) -> "DegreePolynomial":
        """Formal derivative, (0.0,) for a constant; the result is not renormalized."""
        return DegreePolynomial(tuple(i * c for i, c in enumerate(self.coeffs))[1:] or (0.0,))

    def to_edge_perspective(self) -> "DegreePolynomial":
        """Return p'(x)/p'(1), the edge-perspective counterpart of a
        node-perspective distribution p, which needs p'(1) > 0."""
        d = self.derivative()
        norm = d(1.0)
        return DegreePolynomial(tuple(c / norm for c in d.coeffs))


PolySpec = Union[str, Sequence[Sequence[float]]]


def monomial(k: int) -> DegreePolynomial:
    """The distribution x^k (all nodes of degree k)."""
    if k < 1:
        raise ValueError(f"monomial degree must be >= 1, got {k}")
    return DegreePolynomial((0.0,) * k + (1.0,))


def from_pairs(pairs: Iterable[Sequence[float]]) -> DegreePolynomial:
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
    return DegreePolynomial(tuple(coeffs))


def parse_polynomial(spec: PolySpec) -> DegreePolynomial:
    """Parse a config-file polynomial: "x^k" shorthand or (degree, coeff) pairs."""
    if isinstance(spec, str):
        m = _MONOMIAL_RE.match(spec)
        if not m:
            raise ValueError(
                f"cannot parse polynomial {spec!r}: expected 'x^k' shorthand"
            )
        return monomial(int(m.group(1) or 1))
    return from_pairs(spec)
