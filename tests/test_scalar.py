import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import ZERO_LIMIT, bp_by_de_bisection, de_limit, map_by_de_bisection
from scwde.poly import DegreePolynomial, monomial
from scwde.scalar import (
    UncoupledEnsemble,
    bp_threshold,
    de_step,
    landscape,
    map_threshold,
    potential,
    potential_d1,
    potential_d2,
)

ENS36 = UncoupledEnsemble.regular(3, 6)
ENS48 = UncoupledEnsemble.regular(4, 8)
ENS_IRR = UncoupledEnsemble(DegreePolynomial((0.0, 0.0, 0.4, 0.6)), monomial(6))
# Its stability limit lies above the BP threshold, and U(x; eps(x)) is
# negative near x = 0, off the branch of fixed points DE reaches from x = 1.
ENS_DEG2 = UncoupledEnsemble(DegreePolynomial((0.0, 0.0, 0.387, 0.0, 0.0, 0.613)), monomial(7))

# Exact rational evaluations (independent of the code under test):
# de_step(1/2, 19/40) = 19/40 * (1 - (1/2)^5)^2 = 18259/40960
DE_STEP_HALF = 18259 / 40960
# U(1/2; 19/40) = 17651/3932160 for L = x^3, R = x^6
U_HALF = 17651 / 3932160


class TestEnsemble:
    def test_node_validation_rejects_bad_sum(self):
        with pytest.raises(ValueError) as exc:
            UncoupledEnsemble(DegreePolynomial((0.0, 0.4, 0.5)), monomial(6))
        assert str(exc.value) == "L: coefficient sum is 0.9, expected 1"

    def test_validation_rejects_out_of_range_coefficient(self):
        with pytest.raises(ValueError) as exc:
            UncoupledEnsemble(monomial(3), DegreePolynomial((1.5, -0.5)))
        assert str(exc.value) == "R: coefficient 1.5 of x^0 lies outside [0, 1]"

    @pytest.mark.parametrize(("L", "R", "name"), [((1.0,), (0.0, 1.0), "L"),
                                                  ((0.0, 1.0), (1.0,), "R")], ids=["L", "R"])
    def test_validation_rejects_distribution_without_edges(self, L, R, name):
        # all mass at degree 0: L'(1) or R'(1) is 0, so there is no edge perspective
        with pytest.raises(ValueError) as exc:
            UncoupledEnsemble(DegreePolynomial(L), DegreePolynomial(R))
        assert str(exc.value) == f"{name}: degenerate distribution: derivative at 1 is zero"

    # lam, rho, lam', rho', rho'' pinned bitwise: every DE and potential
    # value is computed from these coefficients
    @pytest.mark.parametrize(
        ("ens", "expected"),
        [
            (ENS36, ((0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 0.0, 0.0, 1.0), (0.0, 2.0),
                     (0.0, 0.0, 0.0, 0.0, 5.0), (0.0, 0.0, 0.0, 20.0))),
            (ENS48, ((0.0, 0.0, 0.0, 1.0), (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0),
                     (0.0, 0.0, 3.0), (0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 7.0),
                     (0.0, 0.0, 0.0, 0.0, 0.0, 42.0))),
            (ENS_IRR, ((0.0, 0.30769230769230776, 0.6923076923076923),
                       (0.0, 0.0, 0.0, 0.0, 0.0, 1.0),
                       (0.30769230769230776, 1.3846153846153846),
                       (0.0, 0.0, 0.0, 0.0, 5.0), (0.0, 0.0, 0.0, 20.0))),
        ],
        ids=["3-6", "4-8", "irregular"],
    )
    def test_edge_perspective_coefficients(self, ens, expected):
        names = ("lam", "rho", "lam_d1", "rho_d1", "rho_d2")
        assert tuple(getattr(ens, name).coeffs for name in names) == expected


class TestDeStep:
    def test_full_erasure_state_passes_channel(self):
        assert de_step(1.0, 0.42, ENS36) == 0.42

    def test_zero_is_absorbing(self):
        assert de_step(0.0, 0.7, ENS36) == 0.0
        assert de_step(0.0, 0.7, ENS48) == 0.0

    def test_pinned_value(self):
        assert de_step(0.5, 0.475, ENS36) == pytest.approx(DE_STEP_HALF, rel=1e-14)

    @given(
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
        st.floats(min_value=0.0, max_value=1.0),
    )
    def test_monotone_in_state_and_channel(self, x1, x2, e1, e2):
        x_lo, x_hi = min(x1, x2), max(x1, x2)
        e_lo, e_hi = min(e1, e2), max(e1, e2)
        assert de_step(x_lo, e_lo, ENS36) <= de_step(x_hi, e_hi, ENS36) + 1e-12

    def test_sequence_is_non_increasing(self):
        x = 1.0
        for _ in range(200):
            x_next = de_step(x, 0.46, ENS36)
            assert x_next <= x + 1e-15
            x = x_next


class TestThresholds:
    def test_bp_threshold_regular_3_6(self):
        assert bp_threshold(ENS36) == pytest.approx(0.4294, abs=5e-4)

    def test_bp_threshold_regular_4_8(self):
        t = bp_threshold(ENS48)
        assert 0.0 < t < 0.4294
        assert t == pytest.approx(0.38345, abs=5e-4)

    def test_map_threshold_regular_3_6(self):
        assert map_threshold(ENS36) == pytest.approx(0.4881, abs=5e-4)

    def test_map_threshold_regular_4_8(self):
        assert map_threshold(ENS48) == pytest.approx(0.49774, abs=5e-4)

    @pytest.mark.parametrize(
        ("ens", "eps_bp", "eps_map"),
        [
            (ENS36, 0.4294398144194917, 0.48815088421168423),
            (ENS48, 0.3834465723217365, 0.49774086294842934),
            (ENS_IRR, 0.38453921823385434, 0.4036494432374694),
        ],
        ids=["x3_x6", "x4_x8", "irr23_x6"],
    )
    def test_thresholds_pinned_bitwise(self, ens, eps_bp, eps_map):
        # the floats read off the fixed-point curve: a change to the grid or
        # to the refinement that moves any bit shows here
        assert bp_threshold(ens) == eps_bp
        assert map_threshold(ens) == eps_map

    def test_map_exceeds_bp(self):
        for ens in (ENS36, ENS48):
            assert map_threshold(ens) > bp_threshold(ens)

    def test_degree_two_thresholds_at_stability_limit(self):
        # (2,4): x / lam(1 - rho(1 - x)) = 1 / (3 - 3x + x^2) rises from 1/3,
        # so both thresholds are the stability limit 1 / (lam'(0) rho'(1)) = 1/3
        ens = UncoupledEnsemble.regular(2, 4)
        assert bp_threshold(ens) == pytest.approx(1 / 3, abs=1e-12)
        assert map_threshold(ens) == pytest.approx(1 / 3, abs=1e-12)

    def test_degree_one_variable_nodes_have_zero_bp_threshold(self):
        # lam(0) > 0: every eps > 0 leaves the fixed point eps lam(0) > 0
        ens = UncoupledEnsemble(DegreePolynomial((0.0, 0.1, 0.0, 0.9)), monomial(6))
        assert bp_threshold(ens) == 0.0
        assert map_threshold(ens) == 0.0

    def test_potential_vanishes_at_returned_map_threshold(self):
        eps = map_threshold(ENS36)
        x_d = de_limit(eps, ENS36)
        assert abs(potential(x_d, eps, ENS36)) < 1e-10

    def test_fixed_point_potential_sign_orientation(self):
        for eps in (0.45, 0.47, 0.485):
            lim = de_limit(eps, ENS36)
            assert potential(lim, eps, ENS36) > 0.0
        for eps in (0.49, 0.6):
            lim = de_limit(eps, ENS36)
            assert potential(lim, eps, ENS36) < 0.0

    @pytest.mark.parametrize(
        "ens",
        [UncoupledEnsemble.regular(l, r) for l in range(3, 7) for r in range(l + 1, 13)]
        + [ENS_IRR, ENS_DEG2],
        ids=lambda ens: ens.label(),
    )
    def test_thresholds_match_de_bisection(self, ens):
        # the oracle bisects to a 1e-6 bracket on where DE from x = 1 stops
        assert bp_threshold(ens) == pytest.approx(bp_by_de_bisection(ens), abs=1e-6)
        assert map_threshold(ens) == pytest.approx(map_by_de_bisection(ens), abs=1e-6)


class TestPotential:
    def test_zero_at_origin_exactly(self):
        for eps in (0.0, 0.3, 0.475, 1.0):
            for ens in (ENS36, ENS48):
                assert potential(0.0, eps, ens) == 0.0

    def test_pinned_value(self):
        assert potential(0.5, 0.475, ENS36) == pytest.approx(U_HALF, rel=1e-12)

    def test_d1_zero_at_origin(self):
        assert potential_d1(0.0, 0.475, ENS36) == 0.0

    def test_d1_vanishes_at_stationary_points(self):
        land = landscape(0.475, ENS36)
        for root in (land.x_b, land.x_d):
            assert abs(potential_d1(root, 0.475, ENS36)) < 1e-9

    def test_d1_matches_finite_difference(self):
        # centered difference; the abs floor covers the oracle's own
        # round-off (~eps * |U| / h)
        h = 1e-6
        for x in np.linspace(0.05, 0.95, 19):
            fd = (potential(x + h, 0.475, ENS36) - potential(x - h, 0.475, ENS36)) / (2 * h)
            assert potential_d1(x, 0.475, ENS36) == pytest.approx(fd, rel=1e-7, abs=1e-10)

    def test_d2_matches_finite_difference(self):
        # fourth-order five-point stencil keeps the truncation error below
        # the 1e-8 floor even where the fourth derivative is large
        h = 1e-3
        for x in np.linspace(0.05, 0.95, 19):
            u = lambda t: potential(t, 0.475, ENS36)
            fd = (
                -u(x + 2 * h) + 16 * u(x + h) - 30 * u(x) + 16 * u(x - h) - u(x - 2 * h)
            ) / (12 * h**2)
            assert potential_d2(x, 0.475, ENS36) == pytest.approx(fd, rel=1e-5, abs=1e-8)

    def test_d2_vanishes_at_inflections(self):
        land = landscape(0.475, ENS36)
        for root in (land.x_a, land.x_c0, land.x_e):
            assert abs(potential_d2(root, 0.475, ENS36)) < 1e-8

    def test_d2_changes_sign_across_each_inflection(self):
        land = landscape(0.475, ENS36)
        delta = 1e-4
        for root in (land.x_a, land.x_c0, land.x_e):
            left = potential_d2(root - delta, 0.475, ENS36)
            right = potential_d2(root + delta, 0.475, ENS36)
            assert left * right < 0.0


class TestLandscape:
    def test_all_critical_points_present_and_ordered(self):
        land = landscape(0.475, ENS36)
        assert land.missing() == ()
        assert 0.0 < land.x_a < land.x_b < land.x_c0 < land.x_d < land.x_e < 1.0

    def test_stationary_points_absent_below_bp(self):
        land = landscape(0.3, ENS36)
        assert land.x_b is None and land.x_d is None
        assert land.D is None
        assert land.d1_roots == ()

    def test_grid_potential_zero_at_origin(self):
        land = landscape(0.475, ENS36)
        assert land.U[0] == 0.0

    def test_curvature_bound_dominates_grid(self):
        land = landscape(0.475, ENS36)
        inside = (land.x > 0) & (land.x < land.x_d)
        assert land.D + 1e-12 >= np.max(np.abs(land.U2[inside]))

    def test_curvature_bound_value(self):
        # |U''| on (0, x_d) is maximized toward x -> 0 where it tends to
        # rho'(1) = 5 for the (3,6) ensemble.
        land = landscape(0.475, ENS36)
        assert land.D == pytest.approx(5.0, abs=1e-6)

    def test_stable_point_is_the_de_limit(self):
        land = landscape(0.475, ENS36)
        assert land.x_d > 0.1
        assert de_limit(0.475, ENS36) == pytest.approx(land.x_d, abs=1e-8)

    def test_stationary_roots_are_de_fixed_points(self):
        land = landscape(0.475, ENS36)
        for root in land.d1_roots:
            assert abs(root - de_step(root, 0.475, ENS36)) < 1e-9

    def test_grid_size_guard(self):
        with pytest.raises(ValueError):
            landscape(0.475, ENS36, grid_n=100)


def bracket_cells(values) -> list[int]:
    """The bracketing rule written out cell by cell: a cell [x_i, x_i+1],
    i = 1..n-2, holds a root when values[i] is exactly 0, or when its ends
    change sign and the larger magnitude exceeds the 1e-13 noise floor."""
    cells = []
    for i in range(1, len(values) - 1):
        a, b = float(values[i]), float(values[i + 1])
        if a == 0.0 or (a * b < 0.0 and max(abs(a), abs(b)) > 1e-13):
            cells.append(i)
    return cells


@settings(max_examples=40, deadline=None)
@given(
    l_degree=st.integers(min_value=2, max_value=6),
    r_extra=st.integers(min_value=1, max_value=6),
    eps=st.floats(min_value=0.0, max_value=1.0),
)
@example(l_degree=3, r_extra=3, eps=0.0)  # U'' is exactly 0 at one grid point
@example(l_degree=5, r_extra=5, eps=0.995)  # U' is exactly 0 at one grid point
@example(l_degree=4, r_extra=4, eps=0.98)  # a sign change of U' below the floor
def test_roots_lie_in_the_cells_the_rule_brackets(l_degree, r_extra, eps):
    ens = UncoupledEnsemble.regular(l_degree, l_degree + r_extra)
    land = landscape(eps, ens)
    for roots, values in ((land.d1_roots, land.U1), (land.d2_roots, land.U2)):
        cells = bracket_cells(values)
        assert len(roots) == len(cells)
        for root, i in zip(roots, cells):
            if values[i] == 0.0:
                assert root == land.x[i]
            else:
                assert land.x[i] < root < land.x[i + 1]


@settings(max_examples=30, deadline=None)
@given(st.floats(min_value=0.44, max_value=0.52))
def test_map_sign_convention_on_random_channel(eps):
    lim = de_limit(eps, ENS36)
    u = 0.0 if lim < ZERO_LIMIT else potential(lim, eps, ENS36)
    threshold = 0.488151
    if eps < threshold - 1e-3:
        assert u >= 0.0
    elif eps > threshold + 1e-3:
        assert u < 0.0
