import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scwde.scalar import UncoupledEnsemble, de_step, landscape, potential, potential_d1
from scwde.speed import (
    SpeedReport,
    bound_a1,
    bound_th2,
    detect_steady_state,
    slope_margin_check,
    measure_speed,
)
from scwde.window import CoupledSpec, DEState, WindowSchedule, decode_success, run_wd

ENS36 = UncoupledEnsemble.regular(3, 6)


@pytest.fixture(scope="module")
def fig3_traj():
    spec = CoupledSpec(ens=ENS36, N=100, w=3, epsilon=0.42)
    sched = WindowSchedule(W=11, T=6)
    _, traj = run_wd(spec, sched, record=True)
    return spec, sched, traj


class TestDetectSteadyState:
    def test_translating_profile_detected(self, fig3_traj):
        spec, sched, traj = fig3_traj
        ss = detect_steady_state(traj)
        assert ss.c_prime is not None
        assert ss.residual <= 1e-9
        # regression: onset of 1e-9 steadiness for this configuration
        assert ss.c_prime == 28

    def test_looser_tolerance_detects_earlier(self, fig3_traj):
        spec, sched, traj = fig3_traj
        loose = detect_steady_state(traj, tol=1e-6)
        tight = detect_steady_state(traj, tol=1e-9)
        assert loose.c_prime == 20
        assert loose.c_prime <= tight.c_prime

    def test_shift_residual_attached(self, fig3_traj):
        _, _, traj = fig3_traj
        ss = detect_steady_state(traj)
        assert 0.0 <= ss.residual <= ss.tol

    def test_zero_channel_profile_translates_trivially(self):
        # with eps = 0 every window clears instantly and the 0/1 step
        # profile translates exactly; the trajectory bound is then
        # rejected for having a flat in-window profile
        spec = CoupledSpec(ens=ENS36, N=30, w=3, epsilon=0.0)
        sched = WindowSchedule(W=8, T=2)
        _, traj = run_wd(spec, sched, record=True)
        ss = detect_steady_state(traj)
        assert ss.c_prime is not None
        with pytest.raises(ZeroDivisionError):
            bound_a1(traj, ss.c_prime)


class TestBoundA1:
    def test_speed_bounded_on_steady_run(self, fig3_traj):
        spec, sched, traj = fig3_traj
        ss = detect_steady_state(traj)
        a1 = bound_a1(traj, ss.c_prime)
        assert 1.0 / sched.T <= a1

    def test_deterministic_recomputation(self, fig3_traj):
        spec, sched, traj = fig3_traj
        ss = detect_steady_state(traj)
        a1 = bound_a1(traj, ss.c_prime)
        _, traj2 = run_wd(spec, sched, record=True)
        assert bound_a1(traj2, ss.c_prime) == a1

    def test_missing_window_rejected(self, fig3_traj):
        _, _, traj = fig3_traj
        with pytest.raises(ValueError):
            bound_a1(traj, max(traj.windows()) + 5)


@pytest.fixture(scope="module")
def land465():
    return landscape(0.465, ENS36)


class TestBoundTh2:
    def spec465(self):
        return CoupledSpec(ens=ENS36, N=100, w=4, epsilon=0.465)

    def test_numerator_matches_closed_form(self, land465):
        # U(1; eps) = 1/R'(1) - eps/L'(1) for the (3,6) ensemble
        th2 = bound_th2(self.spec465(), 15, land465)
        expected = 4 * 1.0 * (1.0 / 6.0 - 0.465 / 3.0)
        assert th2.numerator == pytest.approx(expected, rel=1e-12)

    def test_b1_b2_identity(self, land465):
        th2 = bound_th2(self.spec465(), 15, land465)
        assert th2.B1 == pytest.approx(
            th2.B2 - land465.D * land465.x_d / 4, abs=1e-12
        )

    def test_b_terms_increase_with_window(self, land465):
        b_prev = None
        for W in (10, 15, 20, 30):
            th2 = bound_th2(self.spec465(), W, land465)
            if b_prev is not None:
                assert th2.B1 > b_prev
            b_prev = th2.B1

    def test_nonpositive_denominator_flagged_vacuous(self, land465):
        th2 = bound_th2(self.spec465(), 15, land465)
        if th2.B1 <= 0:
            assert th2.finite_w is None
        if th2.B2 > 0:
            assert th2.infinite_w is not None and th2.infinite_w > 0

    def test_curvature_variant_and_subtrahend(self, land465):
        # B2 = 2 U(x_b) - U(x_d) + W (U'(x_a)^2 + U'(x_c0)^2) / D, and the
        # infinite-coupling bound divides the same numerator w alpha U(1) by it
        scaled = bound_th2(self.spec465(), 15, land465)
        curvature = 15 * (
            potential_d1(land465.x_a, 0.465, ENS36) ** 2
            + potential_d1(land465.x_c0, 0.465, ENS36) ** 2
        ) / land465.D
        expected = (
            2 * potential(land465.x_b, 0.465, ENS36)
            - potential(land465.x_d, 0.465, ENS36)
            + curvature
        )
        assert scaled.B2 == pytest.approx(expected, rel=1e-12)
        assert scaled.infinite_w == scaled.numerator / scaled.B2

    def test_missing_landscape_points_rejected(self):
        land_low = landscape(0.3, ENS36)
        with pytest.raises(ValueError, match="lacks"):
            bound_th2(CoupledSpec(ens=ENS36, N=100, w=4, epsilon=0.3), 15, land_low)

    def test_epsilon_mismatch_rejected(self, land465):
        with pytest.raises(ValueError, match="does not match"):
            bound_th2(CoupledSpec(ens=ENS36, N=100, w=4, epsilon=0.42), 15, land465)


class TestSlopeMargin:
    def test_steady_profile_satisfies_bound(self, fig3_traj):
        spec, sched, traj = fig3_traj
        ss = detect_steady_state(traj)
        state = DEState(x=traj.block(ss.c_prime)[0], c=ss.c_prime, t=0)
        rep = slope_margin_check(state, spec, sched)
        assert rep.holds
        assert rep.min_margin >= -1e-9

    def test_first_margin_reads_zero_left_of_chain(self):
        # at c = 1 the first margin's left neighbour x_0 lies outside the chain
        sched = WindowSchedule(W=6, T=1)
        for w in (1, 3):
            spec = CoupledSpec(ens=ENS36, N=10, w=w, epsilon=0.42)
            x = np.linspace(0.9, 0.2, spec.chain_len)
            rep = slope_margin_check(DEState(x=x, c=1, t=0), spec, sched)
            proxy = abs(x[0] - de_step(x[0], 0.42, ENS36)) / w
            assert len(rep.margins) == 6
            assert rep.margins[0] == pytest.approx(x[0] - proxy, rel=1e-14)

    def test_constant_profile_fails(self):
        spec = CoupledSpec(ens=ENS36, N=100, w=3, epsilon=0.0)
        sched = WindowSchedule(W=11, T=6)
        state = DEState(x=np.full(spec.chain_len, 0.3), c=40, t=0)
        rep = slope_margin_check(state, spec, sched)
        assert not rep.holds
        assert rep.min_margin == pytest.approx(-0.3 / 3, rel=1e-12)

    def test_margin_shortfall_scales_inversely_with_coupling_width(self):
        x = np.full(120, 0.3)
        state = DEState(x=x, c=40, t=0)
        sched = WindowSchedule(W=11, T=6)
        margins = {}
        for w in (2, 4):
            spec = CoupledSpec(ens=ENS36, N=121 - w, w=w, epsilon=0.0)
            margins[w] = slope_margin_check(state, spec, sched).min_margin
        assert margins[4] == pytest.approx(margins[2] / 2, rel=1e-12)


class TestMeasureSpeed:
    def test_fast_channel_reports_minimum(self):
        spec = CoupledSpec(ens=ENS36, N=30, w=2, epsilon=0.30)
        rep = measure_speed(spec, W=8, T_max=30, schedule_variant="extended")
        assert rep.T_min is not None
        assert rep.v == 1.0 / rep.T_min
        # a minimum: the budget just below it fails when run in full
        sched = WindowSchedule(W=8, T=rep.T_min - 1, variant="extended")
        if rep.T_min > 1:
            final, _ = run_wd(spec, sched)
            assert not decode_success(final, spec).success

    def test_budget_exhaustion_reports_best_average(self):
        # with no decoding T, best_avg is the average of the full run at T_max
        spec = CoupledSpec(ens=ENS36, N=40, w=4, epsilon=0.487)
        rep = measure_speed(spec, W=12, T_max=3, schedule_variant="extended")
        assert rep.T_min is None and rep.v is None
        assert rep.best_avg is not None and rep.best_avg > 1e-6
        final, _ = run_wd(spec, WindowSchedule(W=12, T=3, variant="extended"))
        assert rep.best_avg == decode_success(final, spec).avg

    def test_report_carries_bounds_when_landscape_given(self):
        spec = CoupledSpec(ens=ENS36, N=40, w=3, epsilon=0.45)
        land = landscape(0.45, ENS36)
        rep = measure_speed(spec, W=10, T_max=60, schedule_variant="extended", land=land)
        assert rep.T_min is not None
        assert rep.th2_B1 is not None
        if rep.c_prime is not None:
            assert rep.A1 is not None
            assert rep.v <= rep.A1 + 1e-9
        # left-of-window decodedness diagnostic: the literal schedule leaves
        # a small positive residual there, reported rather than asserted
        assert rep.th2_hypothesis_residual is not None
        assert 0.0 <= rep.th2_hypothesis_residual <= 1.0

    def test_budget_exhausts_close_to_map_threshold(self):
        # the wave speed collapses approaching the potential threshold:
        # 0.002 below it, even 200 iterations per window cannot decode
        from scwde.scalar import map_threshold
        from scwde.window import decode_success

        eps = round(map_threshold(ENS36) - 0.002, 6)
        spec = CoupledSpec(ens=ENS36, N=100, w=4, epsilon=eps)
        sched = WindowSchedule(W=15, T=200, variant="extended")
        final, _ = run_wd(spec, sched, validate=False)
        assert not decode_success(final, spec).success

    def test_csv_row_layout(self):
        rep = SpeedReport(
            epsilon=0.4,
            W=10,
            T_min=5,
            c_prime=7,
            A1=0.3,
            th2_finite=None,
            th2_infinite=1.2,
            alpha=1.0,
            success_policy="average",
            T_max=60,
        )
        row = rep.csv_values()
        assert len(row) == len(SpeedReport.CSV_COLUMNS)
        assert row[0] == 0.4 and row[2] == 5 and row[3] == 0.2


def steady_and_a1(traj):
    """c' and A1 of a recorded run, as ``measure_speed`` reports them."""
    c_prime = detect_steady_state(traj).c_prime
    if c_prime is None:
        return None, None
    try:
        return c_prime, bound_a1(traj, c_prime)
    except ZeroDivisionError:
        return c_prime, None


@settings(max_examples=100, deadline=None)
@given(
    N=st.integers(min_value=1, max_value=30),
    w=st.integers(min_value=1, max_value=4),
    eps=st.floats(min_value=0.0, max_value=0.45),
    variant=st.sampled_from(["literal", "extended"]),
    degrees=st.sampled_from([(3, 6), (4, 8)]),
    policy=st.sampled_from(["average", "max"]),
    T_first=st.none() | st.integers(min_value=1, max_value=20),
    T_lo=st.integers(min_value=1, max_value=6),
    span=st.integers(min_value=0, max_value=24),
    compute_bounds=st.booleans(),
    data=st.data(),
)
def test_search_matches_linear_scan(
    N, w, eps, variant, degrees, policy, T_first, T_lo, span, compute_bounds, data
):
    # the prefix-deepening search with stopped runs finds what a plain upward
    # scan of full runs finds, reports the metric of the run it stopped at,
    # and takes c' and A1 from that run's trajectory. With T_first, runs
    # fail at later windows and the search takes several rounds
    W = data.draw(st.integers(min_value=1, max_value=N))
    spec = CoupledSpec(ens=UncoupledEnsemble.regular(*degrees), N=N, w=w, epsilon=eps)
    T_max = T_lo + span
    rep = measure_speed(
        spec, W, T_lo=T_lo, T_max=T_max, success_policy=policy, schedule_variant=variant,
        T_first=T_first, compute_bounds=compute_bounds, validate=False,
    )
    for T in range(T_lo, T_max + 1):
        sched = WindowSchedule(W=W, T=T, variant=variant, T_first=T_first)
        final, traj = run_wd(spec, sched, record=True, validate=False)
        verdict = decode_success(final, spec, policy=policy)
        if verdict.success:
            break
    assert rep.T_min == (T if verdict.success else None)
    assert rep.best_avg == verdict.metric
    expected = steady_and_a1(traj) if verdict.success and compute_bounds else (None, None)
    assert (rep.c_prime, rep.A1) == expected


def test_search_runs_the_whole_schedule_once(monkeypatch):
    # near the MAP threshold (T_min = 75) the smallest T that survives the
    # first window decodes: the search runs the whole schedule once, records
    # that run, and takes c' and A1 from it without a rerun
    calls = []

    def counting_run_wd(spec, sched, **kwargs):
        final, traj = run_wd(spec, sched, **kwargs)
        calls.append((sched.c_max(spec), final, traj, kwargs["stop"]))
        return final, traj

    monkeypatch.setattr("scwde.speed.run_wd", counting_run_wd)
    spec = CoupledSpec(ens=ENS36, N=100, w=4, epsilon=0.480)
    rep = measure_speed(spec, W=15, schedule_variant="extended", validate=False)
    whole = [(final, traj, stop) for c_last, final, traj, stop in calls if final.c == c_last]
    assert rep.T_min == 75 and rep.c_prime is not None
    assert len(whole) == 1
    final, traj, stop = whole[0]
    assert stop.failed_at is None and final.t == 75
    assert (rep.c_prime, rep.A1) == steady_and_a1(traj)


@pytest.mark.parametrize(
    ("threshold", "policy", "match"),
    [(0.0, "average", "positive"), (-1e-6, "max", "positive"), (1e-6, "median", "policy")],
)
@pytest.mark.parametrize("T_lo", [1, 200], ids=["search", "fixed"])
def test_bad_success_rule_rejected_before_any_run(monkeypatch, threshold, policy, match, T_lo):
    calls = []

    def counting_run_wd(*args, **kwargs):
        calls.append(args)
        return run_wd(*args, **kwargs)

    monkeypatch.setattr("scwde.speed.run_wd", counting_run_wd)
    spec = CoupledSpec(ens=ENS36, N=100, w=4, epsilon=0.465)
    with pytest.raises(ValueError, match=match):
        measure_speed(spec, W=12, T_lo=T_lo, success_threshold=threshold,
                      success_policy=policy, schedule_variant="extended")
    assert calls == []
