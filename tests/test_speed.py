import tracemalloc
from dataclasses import astuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scwde.window
from oracles import recorded_run, scan_of, slope_margins, steady_state_by_backward_scan
from scwde.config import config_from_mapping, load_preset
from scwde.scalar import UncoupledEnsemble, de_step, landscape, potential, potential_d1
from scwde.speed import (
    STEADY_TOL,
    SpeedReport,
    SuccessRule,
    bound_a1,
    bound_th2,
    decode_success,
    measure_speed,
)
from scwde.window import (
    ChainCheckError,
    CoupledSpec,
    WindowSchedule,
    run_columns,
    run_wd,
)

ENS36 = UncoupledEnsemble.regular(3, 6)


@pytest.fixture(scope="module")
def fig3_run():
    spec = CoupledSpec(ens=ENS36, N=100, w=3, epsilon=0.42)
    sched = WindowSchedule(W=11, T=6, variant="literal")
    _, blocks = recorded_run(spec, sched)
    return spec, sched, blocks


class TestSteadyStateScan:
    def test_translating_profile_detected(self, fig3_run):
        spec, sched, blocks = fig3_run
        scan = scan_of(blocks, spec, sched.W)
        assert scan.c_prime is not None
        assert scan.residual <= 1e-9
        # regression: onset of 1e-9 steadiness for this configuration
        assert scan.c_prime == 28

    def test_looser_tolerance_detects_earlier(self, fig3_run):
        spec, sched, blocks = fig3_run
        loose = scan_of(blocks, spec, sched.W, tol=1e-6)
        tight = scan_of(blocks, spec, sched.W, tol=1e-9)
        assert loose.c_prime == 20
        assert loose.c_prime <= tight.c_prime

    def test_shift_residual_attached(self, fig3_run):
        spec, sched, blocks = fig3_run
        scan = scan_of(blocks, spec, sched.W)
        assert 0.0 <= scan.residual <= scan.tol

    def test_nan_mismatch_ends_the_steady_suffix(self, fig3_run):
        # the scan runs from the last interior pair down and stops at the
        # first pair that does not comply: a NaN in the last interior window,
        # which only that pair's shift mismatch reads, leaves no steady suffix
        spec, sched, blocks = fig3_run
        last = spec.N - sched.W + 1
        broken = dict(blocks)
        broken[last] = blocks[last].copy()
        broken[last][0, spec.N - 5] = np.nan
        scan = scan_of(broken, spec, sched.W)
        assert (scan.c_prime, scan.residual) == (None, None)

    def test_mismatch_before_the_steady_suffix_restarts_it(self, fig3_run):
        # c' is 28 here; a NaN in window 40 fails the pairs (39, 40) and
        # (40, 41), so the forward scan drops the complying pairs before them
        # and starts the steady suffix again at 41
        spec, sched, blocks = fig3_run
        broken = dict(blocks)
        broken[40] = blocks[40].copy()
        broken[40][0, spec.N - 5] = np.nan
        scan = scan_of(broken, spec, sched.W)
        assert scan.c_prime == 41
        assert (scan.c_prime, scan.residual) == steady_state_by_backward_scan(
            broken, spec, sched.W, scan.tol)

    def test_zero_channel_profile_translates_trivially(self):
        # with eps = 0 every window clears instantly and the 0/1 step
        # profile translates exactly; the trajectory bound is then
        # rejected for having a flat in-window profile
        spec = CoupledSpec(ens=ENS36, N=30, w=3, epsilon=0.0)
        sched = WindowSchedule(W=8, T=2, variant="literal")
        _, blocks = recorded_run(spec, sched)
        scan = scan_of(blocks, spec, sched.W)
        assert scan.c_prime is not None
        with pytest.raises(ZeroDivisionError):
            bound_a1(spec, sched, scan.c_prime, *scan.starts)


def float_bits(value):
    return None if value is None else np.float64(value).tobytes()


@settings(max_examples=80, deadline=None)
@given(N=st.integers(min_value=2, max_value=30), w=st.integers(min_value=1, max_value=4),
       data=st.data())
def test_forward_scan_matches_backward_oracle(N, w, data):
    # random small runs, a random subset of windows recorded, and at times
    # a NaN in one recorded state: the forward scan gives the backward
    # scan's c' and the bits of its residual, and keeps the start rows of
    # windows c' and c'+1 as the blocks hold them, through any restart
    W = data.draw(st.integers(min_value=1, max_value=N), label="W")
    sched = WindowSchedule(
        W=W, T=data.draw(st.integers(min_value=1, max_value=4), label="T"),
        variant=data.draw(st.sampled_from(["literal", "extended"]), label="variant"),
        T_first=data.draw(st.none() | st.integers(min_value=1, max_value=6), label="T_first"))
    spec = CoupledSpec(ens=ENS36, N=N, w=w,
                       epsilon=data.draw(st.floats(min_value=0.0, max_value=1.0), label="eps"))
    c_max = sched.c_max(spec)
    windows = data.draw(st.none() | st.lists(st.integers(min_value=1, max_value=c_max),
                                             min_size=1, unique=True), label="windows")
    tol = data.draw(st.sampled_from([0.0, 1e-9, 1e-6, 1e-3, 1.0]), label="tol")
    _, blocks = recorded_run(spec, sched, record_windows=windows)
    if data.draw(st.booleans(), label="nan"):
        c = data.draw(st.sampled_from(sorted(blocks)), label="nan window")
        block = blocks[c] = blocks[c].copy()
        block[data.draw(st.integers(min_value=0, max_value=block.shape[0] - 1)),
              data.draw(st.integers(min_value=0, max_value=block.shape[1] - 1))] = np.nan
    scan = scan_of(blocks, spec, W, tol)
    c_prime, residual = steady_state_by_backward_scan(blocks, spec, W, tol)
    assert scan.c_prime == c_prime
    assert float_bits(scan.residual) == float_bits(residual)
    if c_prime is None:
        assert scan.starts is None
    else:
        assert [row.tobytes() for row in scan.starts] == [
            blocks[c][0].tobytes() for c in (c_prime, c_prime + 1)]


class TestBoundA1:
    def test_speed_bounded_on_steady_run(self, fig3_run):
        spec, sched, blocks = fig3_run
        scan = scan_of(blocks, spec, sched.W)
        a1 = bound_a1(spec, sched, scan.c_prime, *scan.starts)
        assert 1.0 / sched.T <= a1

    def test_deterministic_recomputation(self, fig3_run):
        spec, sched, blocks = fig3_run
        scan = scan_of(blocks, spec, sched.W)
        a1 = bound_a1(spec, sched, scan.c_prime, *scan.starts)
        again = scan_of(recorded_run(spec, sched)[1], spec, sched.W)
        assert bound_a1(spec, sched, again.c_prime, *again.starts) == a1

    def test_window_outside_the_schedule_rejected(self, fig3_run):
        spec, sched, blocks = fig3_run
        c = sched.c_max(spec) + 1
        with pytest.raises(ValueError, match="outside"):
            bound_a1(spec, sched, c, blocks[c - 1][0], blocks[c - 1][0])

    def test_alpha_range_checked(self, fig3_run):
        spec, sched, blocks = fig3_run
        scan = scan_of(blocks, spec, sched.W)
        with pytest.raises(ValueError, match="alpha"):
            bound_a1(spec, sched, scan.c_prime, *scan.starts, alpha=2.5)


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
    """The profile-slope margins of ``oracles.slope_margins``; the bound holds
    where the smallest margin is >= -1e-9."""

    def test_steady_profile_satisfies_bound(self, fig3_run):
        spec, sched, blocks = fig3_run
        scan = scan_of(blocks, spec, sched.W)
        margins = slope_margins(blocks[scan.c_prime][0], scan.c_prime, sched.W, spec)
        assert margins.min() >= -1e-9

    def test_first_margin_reads_zero_left_of_chain(self):
        # at c = 1 the first margin's left neighbour x_0 lies outside the chain
        for w in (1, 3):
            spec = CoupledSpec(ens=ENS36, N=10, w=w, epsilon=0.42)
            x = np.linspace(0.9, 0.2, spec.chain_len)
            margins = slope_margins(x, 1, 6, spec)
            proxy = abs(x[0] - de_step(x[0], 0.42, ENS36)) / w
            assert len(margins) == 6
            assert margins[0] == pytest.approx(x[0] - proxy, rel=1e-14)

    def test_constant_profile_fails(self):
        spec = CoupledSpec(ens=ENS36, N=100, w=3, epsilon=0.0)
        margins = slope_margins(np.full(spec.chain_len, 0.3), 40, 11, spec)
        assert not margins.min() >= -1e-9
        assert margins.min() == pytest.approx(-0.3 / 3, rel=1e-12)

    def test_margin_shortfall_scales_inversely_with_coupling_width(self):
        x = np.full(120, 0.3)
        margins = {}
        for w in (2, 4):
            spec = CoupledSpec(ens=ENS36, N=121 - w, w=w, epsilon=0.0)
            margins[w] = slope_margins(x, 40, 11, spec).min()
        assert margins[4] == pytest.approx(margins[2] / 2, rel=1e-12)


class TestMeasureSpeed:
    def test_fast_channel_reports_minimum(self):
        spec = CoupledSpec(ens=ENS36, N=30, w=2, epsilon=0.30)
        [rep] = measure_speed([(spec, WindowSchedule(W=8, T=1, variant="extended"))], T_max=30)
        assert rep.T_min is not None
        assert rep.v == 1.0 / rep.T_min
        # a minimum: the budget just below it fails when run in full
        sched = WindowSchedule(W=8, T=rep.T_min - 1, variant="extended")
        if rep.T_min > 1:
            final, _ = run_wd(spec, sched, validate=True)
            assert not decode_success(final, spec).success

    def test_default_schedule_decodes(self):
        # a config that names no schedule sweeps the termination tail, so the
        # final average reaches the threshold; literal finds no T up to 200 here
        cfg = config_from_mapping({"ensemble": {"L": "x^3", "R": "x^6"}, "N": 100, "w": 4,
                                   "epsilon": 0.45, "W": 12})
        spec = CoupledSpec(ens=ENS36, N=100, w=4, epsilon=0.45)
        [rep] = measure_speed([(spec, cfg.window_schedule(12))], compute_bounds=False)
        assert rep.T_min == 22

    def test_schedule_variant_has_no_default(self):
        with pytest.raises(TypeError, match="variant"):
            WindowSchedule(12, 1)

    def test_first_T_above_T_max_rejected_before_any_run(self, monkeypatch):
        calls = []

        def counting_run_columns(columns):
            calls.append(columns)
            return run_columns(columns)

        monkeypatch.setattr("scwde.speed.run_columns", counting_run_columns)
        spec = CoupledSpec(ens=ENS36, N=40, w=3, epsilon=0.45)
        with pytest.raises(ValueError, match="T range 25..24 is empty"):
            measure_speed([(spec, WindowSchedule(W=10, T=25, variant="extended"))], T_max=24)
        assert calls == []

    def test_budget_exhaustion_reports_best_average(self):
        # with no decoding T there is no c' or A1, and best_avg is the
        # average of the full run at T_max
        spec = CoupledSpec(ens=ENS36, N=40, w=4, epsilon=0.487)
        [rep] = measure_speed([(spec, WindowSchedule(W=12, T=1, variant="extended"))], T_max=3)
        assert rep.T_min is None and rep.v is None
        assert (rep.c_prime, rep.A1) == (None, None)
        assert rep.best_avg is not None and rep.best_avg > 1e-6
        final, _ = run_wd(spec, WindowSchedule(W=12, T=3, variant="extended"), validate=True)
        assert rep.best_avg == decode_success(final, spec).avg

    @pytest.mark.parametrize("T", [1, 24], ids=["search", "fixed"])
    def test_decoding_T_max_runs_once(self, monkeypatch, T):
        # T_min = T_max = 24: the search and the fixed T each run 24 once, in
        # full and scanned as it runs, and nothing after it. c' and A1 are
        # those of a search whose T_max lies above T_min
        spec = CoupledSpec(ens=ENS36, N=40, w=3, epsilon=0.45)
        [wide] = measure_speed([(spec, WindowSchedule(W=10, T=1, variant="extended"))], T_max=60)
        assert wide.T_min == 24 and wide.c_prime is not None and wide.A1 is not None
        runs = []

        def counting_run_columns(columns):
            [col] = columns
            runs.append((col.sched.T, col.stop, col.on_block is not None))
            return run_columns(columns)

        monkeypatch.setattr("scwde.speed.run_columns", counting_run_columns)
        [rep] = measure_speed([(spec, WindowSchedule(W=10, T=T, variant="extended"))], T_max=24)
        assert (rep.T_min, rep.c_prime, rep.A1, rep.best_avg) == (
            wide.T_min, wide.c_prime, wide.A1, wide.best_avg)
        assert runs[-1] == (24, None, True)
        assert [T for T, _, _ in runs].count(24) == 1

    def test_report_carries_bounds_of_a_landscape_of_grid_n(self):
        spec = CoupledSpec(ens=ENS36, N=40, w=3, epsilon=0.45)
        [rep] = measure_speed([(spec, WindowSchedule(W=10, T=1, variant="extended"))], T_max=60,
                              grid_n=2001)
        th2 = bound_th2(spec, 10, landscape(0.45, ENS36, grid_n=2001))
        assert rep.T_min is not None
        assert rep.th2_infinite is not None
        assert (rep.th2_finite, rep.th2_infinite) == (th2.finite_w, th2.infinite_w)
        if rep.c_prime is not None:
            assert rep.A1 is not None
            assert rep.v <= rep.A1 + 1e-9

    def test_budget_exhausts_close_to_map_threshold(self):
        # the wave speed collapses approaching the potential threshold:
        # 0.002 below it, even 200 iterations per window cannot decode
        from scwde.scalar import map_threshold
        from scwde.speed import decode_success

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


def steady_and_a1(blocks, spec, sched):
    """c' and A1 of a run's recorded blocks, as ``measure_speed`` reports
    them: c' from the backward-scan oracle, A1 from the start rows of
    windows c' and c'+1."""
    c_prime, _ = steady_state_by_backward_scan(blocks, spec, sched.W, STEADY_TOL)
    if c_prime is None:
        return None, None
    try:
        return c_prime, bound_a1(spec, sched, c_prime, blocks[c_prime][0], blocks[c_prime + 1][0])
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
    # and takes c' and A1 from that run's blocks. With T_first, runs
    # fail at later windows and the search takes several rounds
    W = data.draw(st.integers(min_value=1, max_value=N))
    spec = CoupledSpec(ens=UncoupledEnsemble.regular(*degrees), N=N, w=w, epsilon=eps)
    T_max = T_lo + span
    [rep] = measure_speed(
        [(spec, WindowSchedule(W=W, T=T_lo, variant=variant, T_first=T_first))], T_max=T_max,
        success=SuccessRule(policy=policy), compute_bounds=compute_bounds,
    )
    for T in range(T_lo, T_max + 1):
        sched = WindowSchedule(W=W, T=T, variant=variant, T_first=T_first)
        final, blocks = recorded_run(spec, sched)
        verdict = decode_success(final, spec, SuccessRule(policy=policy))
        if verdict.success:
            break
    assert rep.T_min == (T if verdict.success else None)
    assert rep.best_avg == verdict.metric
    expected = (steady_and_a1(blocks, spec, sched) if verdict.success and compute_bounds
                else (None, None))
    assert (rep.c_prime, rep.A1) == expected


def report_bits(report):
    """A report's fields, each float as its exact hex, so == compares bits."""
    return tuple(v.hex() if isinstance(v, float) else v for v in astuple(report))


@pytest.mark.parametrize("T_first", [None, 30], ids=["cold", "warm"])
@pytest.mark.parametrize(("T", "T_max"), [(1, 40), (20, 20)], ids=["search", "fixed"])
def test_group_reports_equal_one_point_groups(monkeypatch, T_first, T, T_max):
    # the (epsilon, W) points of a group run as the columns of one run, their
    # searches in lockstep but apart: each report, bit for bit, is the one a
    # group of that point alone gives. The search decodes at 0.30 and finds no
    # T up to T_max at 0.47; with T_first = 30 a full run fails past the
    # prefix its probes ran, and the search deepens it (six full runs at 0.44
    # and W = 8). A fixed T runs once per point. Each epsilon's landscape is
    # made once, for both of its W
    points = [(CoupledSpec(ens=ENS36, N=40, w=3, epsilon=eps),
               WindowSchedule(W=W, T=T, variant="extended", T_first=T_first))
              for eps in (0.30, 0.44, 0.47) for W in (8, 12)]
    batches, made = [], []

    def counting_run_columns(columns):
        batches.append([(col.spec.epsilon, col.sched.W,
                         col.stop is None or col.stop.c_stop is None) for col in columns])
        return run_columns(columns)

    def counting_landscape(eps, *args, **kwargs):
        made.append(eps)
        return landscape(eps, *args, **kwargs)

    monkeypatch.setattr("scwde.speed.run_columns", counting_run_columns)
    monkeypatch.setattr("scwde.speed.landscape", counting_landscape)
    alone = [measure_speed([point], T_max=T_max)[0] for point in points]
    full_runs = {(spec.epsilon, sched.W): sum(full for batch in batches for e, W, full in batch
                                              if (e, W) == (spec.epsilon, sched.W))
                 for spec, sched in points}
    batches.clear()
    made.clear()
    group = measure_speed(points, T_max=T_max)
    assert made == [0.30, 0.44, 0.47]
    assert [report_bits(r) for r in group] == [report_bits(r) for r in alone]
    assert [(r.epsilon, r.W) for r in group] == [(s.epsilon, d.W) for s, d in points]
    assert alone[0].T_min is not None and alone[0].A1 is not None
    assert alone[4].T_min is None and alone[5].T_min is None
    assert max(len(batch) for batch in batches) == 6
    if T_first is not None and T < T_max:
        assert full_runs == {(0.30, 8): 3, (0.30, 12): 2, (0.44, 8): 6, (0.44, 12): 5,
                             (0.47, 8): 1, (0.47, 12): 1}


def test_search_runs_the_whole_schedule_once(monkeypatch):
    # near the MAP threshold (T_min = 75) the smallest T that survives the
    # first window decodes: the search runs the whole schedule once, scans
    # that run as it goes, and takes c' and A1 from it without a rerun
    calls = []

    def counting_run_columns(columns):
        [col] = columns
        blocks = {}
        if col.on_block is not None:
            def on_block(c, block):
                blocks[c] = block
                col.on_block(c, block)

            columns = [col._replace(on_block=on_block)]
        [final] = run_columns(columns)
        calls.append((col.sched, final, blocks, col.stop))
        return [final]

    monkeypatch.setattr("scwde.speed.run_columns", counting_run_columns)
    spec = CoupledSpec(ens=ENS36, N=100, w=4, epsilon=0.480)
    [rep] = measure_speed([(spec, WindowSchedule(W=15, T=1, variant="extended"))])
    whole = [call for call in calls if call[1].c == call[0].c_max(spec)]
    assert rep.T_min == 75 and rep.c_prime is not None
    assert len(whole) == 1
    sched, final, blocks, stop = whole[0]
    lone, _ = run_wd(spec, sched, validate=False)
    assert stop.failed_at is None and sched.T == 75
    assert (final.x.tobytes(), final.c) == (lone.x.tobytes(), lone.c)
    assert (rep.c_prime, rep.A1) == steady_and_a1(blocks, spec, sched)


def test_memory_holds_a_window_not_the_run():
    # the T_min run is scanned window by window, not kept whole: its 392
    # blocks of 29 states over 403 positions would take 35 MiB
    spec = CoupledSpec(ens=ENS36, N=400, w=4, epsilon=0.465)
    tracemalloc.start()
    try:
        [rep] = measure_speed([(spec, WindowSchedule(W=12, T=1, variant="extended"))], T_max=60)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (rep.T_min, rep.c_prime) == (28, 13)
    assert peak < 2 * 2**20


@pytest.mark.parametrize(
    ("threshold", "policy", "match"),
    [(0.0, "average", "positive"), (-1e-6, "max", "positive"), (1e-6, "median", "policy"),
     (float("nan"), "average", "positive")],
)
@pytest.mark.parametrize("T", [1, 200], ids=["search", "fixed"])
def test_bad_success_rule_rejected_before_any_run(monkeypatch, threshold, policy, match, T):
    calls = []

    def counting_run_columns(columns):
        calls.append(columns)
        return run_columns(columns)

    monkeypatch.setattr("scwde.speed.run_columns", counting_run_columns)
    spec = CoupledSpec(ens=ENS36, N=100, w=4, epsilon=0.465)
    with pytest.raises(ValueError, match=match):
        measure_speed([(spec, WindowSchedule(W=12, T=T, variant="extended"))],
                      success=SuccessRule(threshold, policy))
    assert calls == []


def test_fault_in_a_search_batch_names_its_first_sweep(monkeypatch):
    # the T search runs checked: on the table1 points, a rise of 0.25 in the
    # first column of the 40th sweep, inside a batch of probes, raises for
    # the window and sweep it broke instead of reaching a T_min
    cfg, kernel, calls = load_preset("table1"), scwde.window._window_kernel, []

    def rising_kernel(ws, reads, eps_u, out):
        calls.append(None)
        kernel(ws, reads, eps_u, out)
        if len(calls) == 40:
            out[:, 0] += 0.25

    monkeypatch.setattr("scwde.window._window_kernel", rising_kernel)
    points = [(CoupledSpec(ens=cfg.ensembles[0], N=cfg.N, w=cfg.w, epsilon=cfg.epsilon[0][0]),
               cfg.window_schedule(W)) for W in cfg.W]
    with pytest.raises(ChainCheckError, match=r"^erasure increased within window c=1, t=9$"):
        measure_speed(points, T_max=cfg.T_max, alpha=cfg.alpha, success=cfg.success)


@pytest.mark.parametrize("eps", [0.465, 0.3], ids=["critical-points", "below-bp"])
def test_alpha_out_of_range_rejected_before_any_run(monkeypatch, eps):
    # both bounds check alpha, so a call with bounds fails in its landscape
    # step, also where the landscape lacks the points bound_th2 reads
    def no_run(columns):
        raise AssertionError("run_columns called")

    monkeypatch.setattr("scwde.speed.run_columns", no_run)
    spec = CoupledSpec(ens=ENS36, N=100, w=4, epsilon=eps)
    with pytest.raises(ValueError, match=r"alpha must lie in \[1, 2\]"):
        measure_speed([(spec, WindowSchedule(W=12, T=1, variant="extended"))], alpha=3.0)
    with pytest.raises(ValueError, match=r"alpha must lie in \[1, 2\]"):
        bound_th2(spec, 12, landscape(eps, ENS36), alpha=3.0)


def test_landscape_without_critical_points_leaves_th2_empty():
    # below the BP threshold U' has no nontrivial zero: x_b and x_d are absent
    spec = CoupledSpec(ens=ENS36, N=40, w=3, epsilon=0.3)
    [rep] = measure_speed([(spec, WindowSchedule(W=10, T=1, variant="extended"))], T_max=60)
    assert rep.T_min is not None
    assert (rep.th2_finite, rep.th2_infinite) == (None,) * 2


def test_one_landscape_per_ensemble_and_epsilon(monkeypatch):
    # two ensembles at one epsilon: each run of points that shares (ensemble,
    # epsilon) gets its own landscape, and each point's th2 is read from its
    # own ensemble's. A batch of run_columns shares one ensemble, so the
    # stand-in runs each column alone
    made = []

    def counting_landscape(eps, ens, **kwargs):
        made.append((eps, ens.label()))
        return landscape(eps, ens, **kwargs)

    def column_by_column(columns):
        return [run_columns([col])[0] for col in columns]

    monkeypatch.setattr("scwde.speed.landscape", counting_landscape)
    monkeypatch.setattr("scwde.speed.run_columns", column_by_column)
    points = [(CoupledSpec(ens=ens, N=40, w=3, epsilon=0.45),
               WindowSchedule(W=W, T=1, variant="extended"))
              for ens in (ENS36, UncoupledEnsemble.regular(4, 8)) for W in (8, 10)]
    reports = measure_speed(points, T_max=60)
    assert made == [(0.45, "x3_x6"), (0.45, "x4_x8")]
    for (spec, sched), rep in zip(points, reports):
        th2 = bound_th2(spec, sched.W, landscape(0.45, spec.ens))
        assert (rep.th2_finite, rep.th2_infinite) == (th2.finite_w, th2.infinite_w)
