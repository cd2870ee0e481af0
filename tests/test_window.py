import itertools
import math

import numpy as np
import pytest

import scwde.window
from hypothesis import given, settings
from hypothesis import strategies as st

from scwde.scalar import UncoupledEnsemble
from scwde.speed import _FrozenPrefixStop
from scwde.window import (
    MONOTONE_SLACK,
    ChainCheckError,
    CoupledSpec,
    DEState,
    WindowSchedule,
    decode_success,
    run_wd,
    window_update_values,
)

ENS36 = UncoupledEnsemble.regular(3, 6)


def spec36(N=100, w=3, eps=0.42):
    return CoupledSpec(ens=ENS36, N=N, w=w, epsilon=eps)


def first_window(spec, sched):
    """Recorded iterations t = 0..T_1 of window configuration 1."""
    _, traj = run_wd(spec, sched, record=True, record_windows=[1])
    return traj.block(1)


class TestInitState:
    def test_standard_shape(self):
        st0 = first_window(spec36(), WindowSchedule(W=11, T=1))[0]
        assert st0.shape == (102,)
        assert np.all(st0 == 1.0)

    def test_smallest_spec(self):
        st0 = first_window(spec36(N=1, w=1), WindowSchedule(W=1, T=1))[0]
        assert st0.shape == (1,)
        assert st0[0] == 1.0


class TestFUpdate:
    """The windowed DE map f at in-window positions (window_update_values)."""

    def test_interior_all_ones_gives_channel(self):
        spec = spec36()
        vals = window_update_values(np.ones(spec.chain_len), 4, 11, spec)
        # interior in-window position z = 8: every variable group sees the channel
        assert vals[8 - 4] == pytest.approx(0.42, rel=1e-14)

    def test_all_zero_neighbors_give_zero(self):
        spec = spec36()
        vals = window_update_values(np.zeros(spec.chain_len), 1, 11, spec)
        assert np.all(vals == 0.0)

    def test_left_boundary_fraction(self):
        # position z < w has only z non-virtual variable groups
        spec = spec36(w=3)
        vals = window_update_values(np.ones(spec.chain_len), 1, 11, spec)
        for z in (1, 2):
            assert vals[z - 1] == pytest.approx(0.42 * z / 3, rel=1e-14)


def update_by_definition(x, c, W, spec):
    """The windowed DE map at z = c..c+W-1, one position at a time.

    x_z <- (1/w) sum_{i<w} eps_{z-i} lam(1 - (1/w) sum_{j<w} rho(1 - x_{z-i+j})),
    with x read as zero outside 1..N+w-1 and eps_u = eps only on 1..N.
    """
    w, ens = spec.w, spec.ens

    def read(p):
        return float(x[p - 1]) if 1 <= p <= spec.chain_len else 0.0

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


@settings(max_examples=60, deadline=None)
@given(
    N=st.integers(min_value=1, max_value=20),
    w=st.integers(min_value=1, max_value=4),
    eps=st.floats(min_value=0.0, max_value=1.0),
    degrees=st.sampled_from([(3, 6), (4, 8)]),
    data=st.data(),
)
def test_window_update_matches_definition(N, w, eps, degrees, data):
    W = data.draw(st.integers(min_value=1, max_value=N))
    spec = CoupledSpec(ens=UncoupledEnsemble.regular(*degrees), N=N, w=w, epsilon=eps)
    x = np.array(data.draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                                    min_size=spec.chain_len, max_size=spec.chain_len)))
    # the extended schedule's configurations include the literal ones
    c_max = WindowSchedule(W=W, T=1, variant="extended").c_max(spec)
    for c in range(1, c_max + 1):
        np.testing.assert_allclose(window_update_values(x, c, W, spec),
                                   update_by_definition(x, c, W, spec), rtol=0, atol=1e-13)


class TestSweepAndSlide:
    def test_first_sweep_pattern(self):
        after = first_window(spec36(w=3), WindowSchedule(W=11, T=6))[1]
        for z in range(3, 12):  # interior in-window positions
            assert after[z - 1] == pytest.approx(0.42, rel=1e-14)
        assert after[0] == pytest.approx(0.42 / 3, rel=1e-14)
        assert after[1] == pytest.approx(0.42 * 2 / 3, rel=1e-14)
        assert np.all(after[11:] == 1.0)

    def test_outside_window_bit_identical(self):
        # unvalidated, so run_wd's own out-of-window check cannot mask a change
        spec = spec36(N=30)
        sched = WindowSchedule(W=11, T=4, variant="extended")
        _, traj = run_wd(spec, sched, record=True, validate=False)
        for c in traj.windows():
            block = traj.block(c)
            inside = np.zeros(spec.chain_len, dtype=bool)
            inside[c - 1 : c - 1 + sched.W] = True
            assert np.all(block[:, ~inside] == block[0, ~inside])

    def test_monotone_in_iteration(self):
        spec = spec36()
        _, traj = run_wd(spec, WindowSchedule(W=11, T=6), record=True,
                         validate=False)
        for c in traj.windows():
            assert np.all(np.diff(traj.block(c), axis=0) <= 1e-12)

    def test_slide_keeps_vector_and_resets_t(self):
        spec = spec36()
        sched = WindowSchedule(W=11, T=2, T_first=5)
        _, traj = run_wd(spec, sched, record=True, record_windows=[1, 2])
        assert traj.block(1).shape[0] == 6
        assert traj.block(2).shape[0] == 3
        assert np.array_equal(traj.block(2)[0], traj.block(1)[-1])


class TestRunWd:
    def test_zero_channel_clears_covered_positions(self):
        spec = spec36(eps=0.0)
        sched = WindowSchedule(W=11, T=1)
        final, _ = run_wd(spec, sched)
        assert np.all(final.x[: spec.N] <= 1e-12)

    @pytest.mark.parametrize(
        ("broken", "message"),
        [
            (lambda buf, w, new: new * 0.0 + 1.0 + 1e-9,
             "erasure increased within window c=1, t=1"),
            (lambda buf, w, new: -new - 1e-6, r"erasure left \[0, 1\]"),
            (lambda buf, w, new: buf.__setitem__(-w - 1, 0.5) or new,
             "out-of-window positions changed"),
        ],
        ids=["rise", "range", "outside"],
    )
    def test_broken_sweep_is_a_chain_check_error(self, monkeypatch, broken, message):
        kernel = scwde.window._window_kernel

        def broken_kernel(buf, eps, c, W, spec):
            return broken(buf, spec.w, kernel(buf, eps, c, W, spec))

        monkeypatch.setattr("scwde.window._window_kernel", broken_kernel)
        with pytest.raises(ChainCheckError, match=message):
            run_wd(spec36(N=30), WindowSchedule(W=8, T=2))

    def test_window_larger_than_chain_rejected(self):
        spec = spec36(N=5)
        sched = WindowSchedule(W=11, T=1)
        with pytest.raises(ValueError, match="exceeds"):
            run_wd(spec, sched)

    def test_deterministic_replay(self):
        spec = spec36()
        sched = WindowSchedule(W=11, T=6)
        a, _ = run_wd(spec, sched)
        b, _ = run_wd(spec, sched)
        assert np.array_equal(a.x, b.x)

    def test_extended_schedule_updates_tail(self):
        spec = spec36(N=30)
        lit, _ = run_wd(spec, WindowSchedule(W=8, T=20, variant="literal"))
        ext, _ = run_wd(spec, WindowSchedule(W=8, T=20, variant="extended"))
        # tail checks stay at the initial value under the literal rule only
        assert np.all(lit.x[spec.N :] == 1.0)
        assert np.all(ext.x[spec.N :] < 1.0)

    def test_generous_iterations_decode_successfully(self):
        spec = spec36()
        sched = WindowSchedule(W=11, T=50, variant="extended")
        final, _ = run_wd(spec, sched)
        assert decode_success(final, spec).success

    def test_trajectory_layout(self):
        spec = spec36(N=20)
        sched = WindowSchedule(W=8, T=3)
        final, traj = run_wd(spec, sched, record=True)
        assert traj.windows() == list(range(1, 14))
        assert traj.block(5).shape == (4, spec.chain_len)
        assert np.array_equal(traj.block(13)[3], final.x)
        # hand-off identity: next window's t=0 equals previous window's t=T
        for c in range(1, 13):
            assert np.array_equal(traj.block(c)[3], traj.block(c + 1)[0])

    def test_stop_sees_each_window_and_ends_at_first_true(self):
        spec = spec36(N=20)
        sched = WindowSchedule(W=8, T=3)
        _, full = run_wd(spec, sched, record=True)

        def run_with(stop_at):
            seen = []

            def stop(c, x):
                seen.append((c, x.copy()))
                return c in stop_at

            final, traj = run_wd(spec, sched, record=True, stop=stop)
            # called once per window run, in order, with the state after it
            assert [c for c, _ in seen] == list(range(1, final.c + 1))
            assert all(np.array_equal(x, full.block(c)[-1]) for c, x in seen)
            return final, traj

        final, traj = run_with({5, 7})
        assert traj.windows() == [1, 2, 3, 4, 5]
        assert (final.c, final.t) == (5, 3)
        assert np.array_equal(final.x, full.block(5)[-1])
        # a hook that never returns true runs the whole schedule
        final, _ = run_with(set())
        assert final.c == 13 and np.array_equal(final.x, full.block(13)[-1])

    def test_trajectory_window_filter(self):
        spec = spec36(N=20)
        sched = WindowSchedule(W=8, T=3)
        _, traj = run_wd(spec, sched, record=True, record_windows=[4, 5])
        assert traj.windows() == [4, 5]

    def test_monotone_across_configurations(self):
        spec = spec36(N=30)
        sched = WindowSchedule(W=8, T=4)
        _, traj = run_wd(spec, sched, record=True)
        for c in range(1, 23):
            cur, nxt = traj.block(c), traj.block(c + 1)
            rows = min(cur.shape[0], nxt.shape[0])
            assert np.all(nxt[:rows] <= cur[:rows] + 1e-12)

    def test_first_window_warm_start(self):
        spec = spec36(N=30)
        sched = WindowSchedule(W=8, T=3, T_first=20)
        _, traj = run_wd(spec, sched, record=True)
        assert traj.block(1).shape[0] == 21
        assert traj.block(2).shape[0] == 4


class TestDecodeSuccess:
    def test_all_zero_succeeds(self):
        spec = spec36()
        state = DEState(x=np.zeros(spec.chain_len), c=1, t=0)
        rep = decode_success(state, spec)
        assert rep.success and rep.avg == 0.0 and rep.max == 0.0

    def test_all_ones_fails(self):
        spec = spec36()
        rep = decode_success(DEState(x=np.ones(spec.chain_len), c=1, t=0), spec)
        assert not rep.success

    def test_max_policy_is_stricter(self):
        spec = spec36(N=10, w=1)
        x = np.zeros(spec.chain_len)
        x[3] = 5e-6  # avg 5e-7 < 1e-6 < max
        state = DEState(x=x, c=1, t=0)
        assert decode_success(state, spec, policy="average").success
        assert not decode_success(state, spec, policy="max").success

    def test_bad_policy_rejected(self):
        spec = spec36()
        with pytest.raises(ValueError):
            decode_success(DEState(x=np.ones(spec.chain_len), c=1, t=0), spec,
                           policy="median")


@settings(max_examples=25, deadline=None)
@given(
    N=st.integers(min_value=2, max_value=8),
    w=st.integers(min_value=1, max_value=3),
    eps=st.floats(min_value=0.0, max_value=1.0),
    T=st.integers(min_value=1, max_value=3),
    data=st.data(),
)
def test_random_small_runs_stay_in_unit_interval(N, w, eps, T, data):
    W = data.draw(st.integers(min_value=1, max_value=N))
    spec = CoupledSpec(ens=ENS36, N=N, w=w, epsilon=eps)
    sched = WindowSchedule(W=W, T=T)
    final, traj = run_wd(spec, sched, record=True)
    assert np.all(final.x >= 0.0) and np.all(final.x <= 1.0)
    for c in traj.windows():
        block = traj.block(c)
        assert np.all(block >= 0.0) and np.all(block <= 1.0)
        assert np.all(np.diff(block, axis=0) <= 1e-12)


def abort_window(spec, sched, threshold, policy):
    """The window where the search's stop rule failed the run; inf when it never did."""
    stop = _FrozenPrefixStop(spec, threshold, policy)
    final, _ = run_wd(spec, sched, validate=False, stop=stop)
    assert final.c == (sched.c_max(spec) if stop.failed_at is None else stop.failed_at)
    return math.inf if stop.failed_at is None else stop.failed_at


@settings(max_examples=60, deadline=None)
@given(
    N=st.integers(min_value=1, max_value=30),
    w=st.integers(min_value=1, max_value=4),
    eps=st.floats(min_value=0.0, max_value=1.0),
    T=st.integers(min_value=1, max_value=8),
    variant=st.sampled_from(["literal", "extended"]),
    degrees=st.sampled_from([(3, 6), (4, 8)]),
    policy=st.sampled_from(["average", "max"]),
    threshold=st.sampled_from([1e-10, 1e-6, 1e-3, 1e-1]),
    T_first=st.none() | st.integers(min_value=1, max_value=20),
    data=st.data(),
)
def test_final_erasures_monotone_in_T(
    N, w, eps, T, variant, degrees, policy, threshold, T_first, data
):
    # one more iteration per window never leaves more erasures behind, at
    # the end of any window; so the search's stop rule, which reads the
    # positions frozen at the end of each window, fails a run no earlier at
    # T+1 than at T: survival of every prefix is monotone in T
    W = data.draw(st.integers(min_value=1, max_value=N))
    spec = CoupledSpec(ens=UncoupledEnsemble.regular(*degrees), N=N, w=w, epsilon=eps)
    fewer_sched, more_sched = (
        WindowSchedule(W=W, T=T_, variant=variant, T_first=T_first) for T_ in (T, T + 1)
    )
    fewer, fewer_traj = run_wd(spec, fewer_sched, record=True, validate=False)
    more, more_traj = run_wd(spec, more_sched, record=True, validate=False)
    assert np.all(more.x <= fewer.x + MONOTONE_SLACK)
    for c in fewer_traj.windows():
        assert np.all(more_traj.block(c)[-1] <= fewer_traj.block(c)[-1] + MONOTONE_SLACK)
    assert (abort_window(spec, more_sched, threshold, policy)
            >= abort_window(spec, fewer_sched, threshold, policy))


@settings(max_examples=80, deadline=None)
@given(
    N=st.integers(min_value=1, max_value=30),
    w=st.integers(min_value=1, max_value=4),
    eps=st.floats(min_value=0.3, max_value=0.6),
    T=st.integers(min_value=1, max_value=12),
    variant=st.sampled_from(["literal", "extended"]),
    degrees=st.sampled_from([(3, 6), (4, 8)]),
    policy=st.sampled_from(["average", "max"]),
    threshold=st.sampled_from([1e-10, 1e-6, 1e-3, "tie"]),
    T_first=st.none() | st.integers(min_value=1, max_value=20),
    data=st.data(),
)
def test_abort_stops_only_failing_runs(
    N, w, eps, T, variant, degrees, policy, threshold, T_first, data
):
    # a stopped run fails when run in full; a run not stopped is the full run.
    # "tie" puts the threshold one ulp above the full run's own metric, so the
    # run decodes while its frozen erasures sit right at the limit
    W = data.draw(st.integers(min_value=1, max_value=N))
    spec = CoupledSpec(ens=UncoupledEnsemble.regular(*degrees), N=N, w=w, epsilon=eps)
    sched = WindowSchedule(W=W, T=T, variant=variant, T_first=T_first)
    full, full_traj = run_wd(spec, sched, record=True, validate=False)
    if threshold == "tie":
        metric = decode_success(full, spec, policy=policy).metric
        threshold = max(float(np.nextafter(metric, 1.0)), 1e-300)
    verdict = decode_success(full, spec, threshold=threshold, policy=policy)
    stop = _FrozenPrefixStop(spec, threshold, policy)
    stopped, traj = run_wd(spec, sched, record=True, validate=False, stop=stop)
    if stop.failed_at is not None:
        assert stopped.c == stop.failed_at
        assert not verdict.success
    else:
        assert np.array_equal(stopped.x, full.x)
    # a stopped run keeps the windows it ran, as the full run recorded them
    assert traj.windows() == list(range(1, stopped.c + 1))
    assert all(np.array_equal(traj.block(c), full_traj.block(c)) for c in traj.windows())
    # a run stopped after window c_stop survives it unless the rule failed it by then
    c_stop = data.draw(st.integers(min_value=1, max_value=sched.c_max(spec)))
    prefix_stop = _FrozenPrefixStop(spec, threshold, policy, c_stop)
    prefix, _ = run_wd(spec, sched, validate=False, stop=prefix_stop)
    assert prefix_stop.failed_at == (stop.failed_at if stopped.c <= c_stop else None)
    assert prefix.c == min(c_stop, stopped.c)


def test_abort_slack_keeps_a_tie_decoding():
    # with W <= w on the extended schedule the whole chain is frozen before
    # the last window ends; a threshold one ulp above the average decodes,
    # and the stop rule must agree although its running sum and np.mean
    # round differently (without the slack it fails several of these runs)
    for N, w, eps, T in itertools.product((10, 30), (2, 3, 4), (0.3, 0.4, 0.45), (1, 2, 4)):
        spec = spec36(N=N, w=w, eps=eps)
        for W in (1, w):
            sched = WindowSchedule(W=W, T=T, variant="extended")
            full, _ = run_wd(spec, sched, validate=False)
            avg = decode_success(full, spec).avg
            tie = float(np.nextafter(avg, 1.0))
            assert decode_success(full, spec, threshold=tie).success
            assert abort_window(spec, sched, tie, "average") == math.inf
            # a threshold clearly below the average does stop the run
            assert abort_window(spec, sched, avg * (1 - 1e-6), "average") < math.inf


class TestAbortArguments:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            _FrozenPrefixStop(spec36(N=10, w=2), 1e-6, "median")
