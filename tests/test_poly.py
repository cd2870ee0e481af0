import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import horner_into_with_floats, horner_out_of_place
from scwde.poly import DegreePolynomial, from_pairs, monomial, parse_polynomial


def test_eval_normalization_at_one():
    assert monomial(3)(1.0) == 1.0


def test_eval_monomial_half():
    assert monomial(6)(0.5) == 0.015625


def test_eval_mixed_half():
    p = from_pairs([(2, 0.5), (3, 0.5)])
    assert p(0.5) == pytest.approx(0.1875, rel=1e-15)


def test_constant_keeps_array_shape():
    const = DegreePolynomial((0.25,))
    assert np.array_equal(const(np.zeros((2, 3))), np.full((2, 3), 0.25))
    assert const(0.5) == 0.25


def test_derivative_power_rule():
    assert monomial(3).derivative().coeffs == (0.0, 0.0, 3.0)
    assert monomial(6).derivative().coeffs == (0.0, 0.0, 0.0, 0.0, 0.0, 6.0)


def test_derivative_linearity():
    p = from_pairs([(2, 0.5), (3, 0.5)])
    assert p.derivative().coeffs == (0.0, 1.0, 1.5)


def test_derivative_of_constant_is_zero():
    assert DegreePolynomial((3.0,)).derivative().coeffs == (0.0,)


def test_edge_perspective_regular():
    lam = monomial(3).to_edge_perspective()
    assert lam.coeffs == (0.0, 0.0, 1.0)
    rho = monomial(6).to_edge_perspective()
    assert rho.coeffs == (0.0, 0.0, 0.0, 0.0, 0.0, 1.0)


def test_edge_perspective_mixed():
    lam = from_pairs([(2, 0.5), (3, 0.5)]).to_edge_perspective()
    assert lam.coeffs == pytest.approx((0.0, 0.4, 0.6), abs=1e-15)
    assert lam(1.0) == pytest.approx(1.0, abs=1e-12)


def test_parse_monomial_shorthand():
    assert parse_polynomial("x^3").coeffs == monomial(3).coeffs
    assert parse_polynomial("x").coeffs == (0.0, 1.0)


def test_parse_pairs():
    p = parse_polynomial([[2, 0.5], [3, 0.5]])
    assert p.coeffs == (0.0, 0.0, 0.5, 0.5)


def test_parse_rejects_garbage():
    with pytest.raises(ValueError):
        parse_polynomial("y^3")
    with pytest.raises(ValueError):
        parse_polynomial([[2, 0.5], [2, 0.5]])


def node_polys(max_degree=8):
    return (
        st.lists(
            st.floats(min_value=0.0, max_value=1.0),
            min_size=2,
            max_size=max_degree,
        )
        .filter(lambda cs: sum(cs[1:]) > 0.1)
        .map(lambda cs: DegreePolynomial(tuple(c / sum(cs) for c in cs)))
    )


@given(node_polys())
def test_edge_perspective_evaluates_to_one(p):
    lam = p.to_edge_perspective()
    assert abs(lam(1.0) - 1.0) <= 1e-12


@given(
    node_polys(),
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)
def test_eval_monotone_for_nonnegative_coefficients(p, a, b):
    lo, hi = min(a, b), max(a, b)
    assert p(lo) <= p(hi) + 1e-12


@given(node_polys(), st.floats(min_value=0.01, max_value=0.99))
@example(DegreePolynomial((0.0, 0.0, 0.0, 1.0)), 0.03125)
@settings(max_examples=200)
def test_derivative_matches_finite_difference(p, x):
    # the central difference is off by its truncation error h^2 p'''(xi)/6,
    # xi in [x - h, x + h], at most h^2 p'''(1)/6 for non-negative
    # coefficients; rel and the 1e-10 leave room for rounding
    h = 1e-5
    fd = (p(x + h) - p(x - h)) / (2 * h)
    exact = p.derivative()(x)
    truncation = h**2 * p.derivative().derivative().derivative()(1.0) / 6
    assert exact == pytest.approx(fd, rel=1e-8, abs=1e-10 + truncation)


def test_horner_matches_numpy_polyval_on_arrays():
    p = from_pairs([(1, 0.25), (4, 0.75)])
    xs = np.linspace(0.0, 1.0, 17)
    expected = np.array([p(float(v)) for v in xs])
    assert np.array_equal(p(xs), expected)


def plain_horner(coeffs, x):
    acc = coeffs[-1]
    for c in reversed(coeffs[:-1]):
        acc = acc * x + c
    return acc


sparse_node_polys = st.dictionaries(
    st.integers(min_value=1, max_value=12), st.floats(min_value=0.01, max_value=1.0),
    min_size=1, max_size=4,
).map(lambda d: from_pairs([(k, v / sum(d.values())) for k, v in d.items()]))


@given(sparse_node_polys,
       st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=20))
@settings(max_examples=200)
def test_zero_coefficient_steps_skipped_bitwise(p, xs):
    # skipping the "+ 0.0" Horner steps changes no bit on [0, 1], for the
    # distribution, its edge perspective and the derivative the kernel uses
    xs = np.array(xs)
    for q in (p, p.to_edge_perspective(), p.to_edge_perspective().derivative()):
        expected = np.broadcast_to(plain_horner(q.coeffs, xs), xs.shape)  # constants too
        assert q(xs).tobytes() == expected.tobytes()
        for v in xs.tolist():
            assert np.float64(q(v)).tobytes() == np.float64(plain_horner(q.coeffs, v)).tobytes()


any_polys = st.lists(st.just(0.0) | st.floats(min_value=-2.0, max_value=2.0),
                     min_size=1, max_size=8).map(lambda cs: DegreePolynomial(tuple(cs)))


@given(any_polys, st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=6, max_size=6))
@example(DegreePolynomial((0.25,)), [0.5] * 6)
@example(DegreePolynomial((0.1, 0.0, 0.0, 3.0)), [0.0, 0.25, 0.5, 0.75, 1.0, 0.3])
@example(DegreePolynomial((0.0, 0.0, 1.0)), [0.0, 0.25, 0.5, 0.75, 1.0, 0.3])  # a leading 1
@settings(max_examples=200)
def test_in_place_horner_leaves_argument_alone(p, vals):
    # read-only arrays make any write to the argument raise
    arrays = [np.array(vals), np.array(vals).reshape(2, 3), np.array(vals[0])]
    for a in arrays:
        a.flags.writeable = False
    for x in (*arrays, vals[0], np.float64(vals[0])):
        before = np.array(x)
        got, want = p(x), horner_out_of_place(p, x)
        assert type(got) is type(want) and np.shape(got) == np.shape(want)
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes()
        assert np.asarray(x).tobytes() == before.tobytes()
        assert not np.shares_memory(got, x)
    # into a given buffer: the same bits, in that buffer, constants included
    for x in arrays:
        out = np.full(x.shape, np.nan)
        assert p(x, out) is out
        assert out.tobytes() == np.asarray(horner_out_of_place(p, x)).tobytes()


irregular_node_polys = sparse_node_polys.filter(lambda p: sum(map(bool, p.coeffs)) > 1)


@given(irregular_node_polys,
       st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=40))
@example(from_pairs([(2, 0.4), (3, 0.6)]), [0.0, 0.3, 0.7, 1.0])
@settings(max_examples=200)
def test_buffered_horner_takes_coefficients_as_arrays_bitwise(p, xs):
    # into a buffer the nonzero coefficients are 0-d arrays; they round as the
    # Python floats do, and the polynomial still compares and hashes by its floats
    xs = np.array(xs)
    for q in (p, p.to_edge_perspective(), p.to_edge_perspective().derivative()):
        if len(q.coeffs) == 1:
            continue
        want = horner_into_with_floats(q, xs, np.empty_like(xs))
        assert q(xs, np.empty_like(xs)).tobytes() == want.tobytes()
        same = DegreePolynomial(q.coeffs)
        assert same == q and hash(same) == hash(q) and type(q(0.5)) is float
