import itertools
import math

import numpy as np
import pytest

import scwde.window
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import SWEEP_ENSEMBLES, recorded_run, update_by_definition, update_out_of_place
from scwde.scalar import UncoupledEnsemble
from scwde.speed import SuccessRule, _FrozenPrefixStop, decode_success
from scwde.window import (
    MONOTONE_SLACK,
    ChainCheckError,
    Column,
    CoupledSpec,
    DEState,
    WindowSchedule,
    run_columns,
    run_wd,
)

ENS36 = UncoupledEnsemble.regular(3, 6)


def spec36(N=100, w=3, eps=0.42):
    return CoupledSpec(ens=ENS36, N=N, w=w, epsilon=eps)


def first_window(spec, sched):
    """Recorded iterations t = 0..T_1 of window configuration 1."""
    _, blocks = recorded_run(spec, sched, record_windows=[1])
    return blocks[1]


class TestInitState:
    def test_standard_shape(self):
        st0 = first_window(spec36(), WindowSchedule(W=11, T=1, variant="literal"))[0]
        assert st0.shape == (102,)
        assert np.all(st0 == 1.0)

    def test_smallest_spec(self):
        st0 = first_window(spec36(N=1, w=1), WindowSchedule(W=1, T=1, variant="literal"))[0]
        assert st0.shape == (1,)
        assert st0[0] == 1.0


def run_out_of_place(spec, sched):
    """The final vector and every window's (T_c+1, N+w-1) block."""
    x, blocks = np.ones(spec.chain_len), {}
    for c in range(1, sched.c_max(spec) + 1):
        rows = [x.copy()]
        for _ in range(sched.iterations_for(c)):
            x[c - 1 : c - 1 + sched.W] = update_out_of_place(x, c, sched.W, spec)
            rows.append(x.copy())
        blocks[c] = np.array(rows)
    return x, blocks


# (N, W) with 1 <= W <= N
chain_and_window = st.integers(min_value=1, max_value=16).flatmap(
    lambda N: st.tuples(st.just(N), st.integers(min_value=1, max_value=N)))


@settings(max_examples=80, deadline=None)
@given(
    ens=st.sampled_from(SWEEP_ENSEMBLES),
    NW=chain_and_window,
    w=st.integers(min_value=1, max_value=5),
    eps=st.floats(min_value=0.0, max_value=1.0),
    T=st.integers(min_value=1, max_value=4),
    T_first=st.none() | st.integers(min_value=1, max_value=8),
    variant=st.sampled_from(["literal", "extended"]),
)
# the edge shapes, run every time: w = 1 with W = 1 (each mean is one
# value), a constant lambda (its Horner fills the buffer), a warm first
# window, and a w = 4 chain of another ensemble
@example(ens=ENS36, NW=(6, 1), w=1, eps=0.42, T=3, T_first=None, variant="extended")
@example(ens=SWEEP_ENSEMBLES[2], NW=(9, 4), w=3, eps=0.5, T=2, T_first=None,
         variant="extended")
@example(ens=ENS36, NW=(12, 5), w=3, eps=0.45, T=2, T_first=7, variant="literal")
@example(ens=SWEEP_ENSEMBLES[1], NW=(14, 6), w=4, eps=0.47, T=3, T_first=None,
         variant="extended")
def test_run_matches_out_of_place_arithmetic_bitwise(ens, NW, w, eps, T, T_first, variant):
    # the engine's views and buffered steps round exactly as new arrays do
    N, W = NW
    spec = CoupledSpec(ens=ens, N=N, w=w, epsilon=eps)
    sched = WindowSchedule(W=W, T=T, variant=variant, T_first=T_first)
    final, blocks = recorded_run(spec, sched)
    x, expected = run_out_of_place(spec, sched)
    assert final.x.tobytes() == x.tobytes()
    assert sorted(blocks) == sorted(expected)
    for c, block in expected.items():
        assert blocks[c].tobytes() == block.tobytes()


@settings(max_examples=60, deadline=None)
@given(
    ens=st.sampled_from(SWEEP_ENSEMBLES),
    N=st.integers(min_value=1, max_value=12),
    w=st.integers(min_value=1, max_value=4),
    eps=st.floats(min_value=0.0, max_value=1.0),
    T=st.integers(min_value=1, max_value=3),
    T_first=st.none() | st.integers(min_value=1, max_value=6),
    variant=st.sampled_from(["literal", "extended"]),
    data=st.data(),
)
def test_run_rows_match_definition(ens, N, w, eps, T, T_first, variant, data):
    # every recorded sweep applies the windowed DE map to the row before it:
    # window 1 reads left of the chain, and the extended schedule's last
    # windows run into the termination tail
    W = data.draw(st.integers(min_value=1, max_value=N))
    spec = CoupledSpec(ens=ens, N=N, w=w, epsilon=eps)
    sched = WindowSchedule(W=W, T=T, variant=variant, T_first=T_first)
    _, blocks = recorded_run(spec, sched)
    for c in sorted(blocks):
        block = blocks[c]
        for t in range(block.shape[0] - 1):
            np.testing.assert_allclose(block[t + 1, c - 1 : c - 1 + W],
                                       update_by_definition(block[t], c, W, spec),
                                       rtol=0, atol=1e-13)


def logged_column(spec, sched, stop_at, log):
    """A ``Column`` whose hooks append (c, bytes) of each block and of each
    vector the stop hook sees to ``log``; it stops after window ``stop_at``."""
    blocks, stops = log

    def stop(c, x):
        stops.append((c, x.tobytes()))
        return c == stop_at

    return Column(spec, sched, stop, lambda c, block: blocks.append((c, block.tobytes())))


# a chain length N and 1-4 chains of a batched run on it: (epsilon, W in
# 1..N, T, the window its stop hook fires after)
chains_on_N = st.integers(min_value=1, max_value=16).flatmap(lambda N: st.tuples(
    st.just(N), st.lists(st.tuples(st.floats(min_value=0.0, max_value=1.0),
                                   st.integers(min_value=1, max_value=N),
                                   st.integers(min_value=1, max_value=5),
                                   st.none() | st.integers(min_value=1, max_value=20)),
                         min_size=1, max_size=4)))


@settings(max_examples=80, deadline=None)
@given(
    ens=st.sampled_from(SWEEP_ENSEMBLES),
    N_chains=chains_on_N,
    w=st.integers(min_value=1, max_value=4),
    T_first=st.none() | st.integers(min_value=1, max_value=8),
    variant=st.sampled_from(["literal", "extended"]),
)
@example(ens=ENS36, N_chains=(12, [(0.42, 5, 2, None), (0.47, 5, 5, 3), (0.3, 5, 3, 6)]), w=3,
         T_first=7, variant="extended")
# the widest window possible and the narrowest: the W = N column ends after
# w windows, and until then the W = 1 column is written through the mask
@example(ens=ENS36, N_chains=(9, [(0.42, 1, 3, None), (0.47, 9, 2, None), (0.3, 4, 5, 7)]),
         w=3, T_first=None, variant="extended")
# a T = 1 column rides along the 12 sweeps of a wider column until that one
# stops after window 3; its sweeps past t = 1 reach neither its chain nor its hooks
@example(ens=ENS36, N_chains=(10, [(0.42, 4, 1, None), (0.47, 7, 12, 3)]), w=2, T_first=None,
         variant="literal")
def test_columns_run_as_their_chains_run_alone(ens, N_chains, w, T_first, variant):
    # each column of a batched run is its chain run alone, bit for bit: the
    # final vector, the window it ended at, and every block and stop-hook
    # vector its hooks saw, whatever the other columns' W, T and stop windows
    N, chains = N_chains
    columns, alone = [], []
    for eps, W, T, stop_at in chains:
        spec = CoupledSpec(ens=ens, N=N, w=w, epsilon=eps)
        sched = WindowSchedule(W=W, T=T, variant=variant, T_first=T_first)
        log = [], []
        [final] = run_columns([logged_column(spec, sched, stop_at, log)])
        alone.append((final.x.tobytes(), final.c, log))
        columns.append((spec, sched, stop_at))
    logs = [([], []) for _ in chains]
    finals = run_columns([logged_column(*col, log) for col, log in zip(columns, logs)])
    assert [(f.x.tobytes(), f.c, log) for f, log in zip(finals, logs)] == alone


@settings(max_examples=40, deadline=None)
@given(
    N=st.integers(min_value=1, max_value=16),
    w=st.integers(min_value=1, max_value=4),
    T_first=st.none() | st.integers(min_value=1, max_value=8),
    variant=st.sampled_from(["literal", "extended"]),
    data=st.data(),
)
def test_rise_in_one_column_raises_its_lone_message(N, w, T_first, variant, data):
    # a rise injected into one chain's n-th sweep raises, in a batched run,
    # the ChainCheckError that chain raises alone: the same window and sweep
    chains = data.draw(st.lists(st.tuples(st.integers(min_value=1, max_value=5),
                                          st.integers(min_value=1, max_value=N)),
                                min_size=2, max_size=4))  # (T, W) of each chain
    eps = [0.30 + 0.01 * j for j in range(len(chains))]  # the channel tells the columns apart
    columns = [Column(CoupledSpec(ens=ENS36, N=N, w=w, epsilon=e),
                      WindowSchedule(W=W, T=T, variant=variant, T_first=T_first))
               for e, (T, W) in zip(eps, chains)]
    target = data.draw(st.integers(min_value=0, max_value=len(chains) - 1))
    sched, spec = columns[target].sched, columns[target].spec
    sweeps = [(c, t) for c in range(1, sched.c_max(spec) + 1)
              for t in range(1, sched.iterations_for(c) + 1)]  # (window, sweep) of the chain
    c_at, t_at = sweeps[data.draw(st.integers(min_value=1, max_value=len(sweeps))) - 1]
    kernel = scwde.window._window_kernel

    def message(batch):
        # window c makes one kernel call per sweep up to the largest T of the
        # chains that reach it, so sweep t_at of window c_at is this call
        at = t_at + sum(max(col.sched.iterations_for(c) for col in batch
                            if c <= col.sched.c_max(col.spec)) for c in range(1, c_at))
        calls = []

        def rising_kernel(ws, reads, eps_u, out):
            kernel(ws, reads, eps_u, out)
            calls.append(None)
            if len(calls) == at:
                out[:, np.flatnonzero(eps_u.max(axis=0) == eps[target])[0]] += 2.0

        with pytest.MonkeyPatch.context() as mp:
            mp.setattr("scwde.window._window_kernel", rising_kernel)
            with pytest.raises(ChainCheckError) as exc:
                run_columns(batch)
        return str(exc.value)

    lone = message([columns[target]])
    assert lone.startswith("erasure increased within window")
    assert message(columns) == lone


def test_write_beside_a_narrower_window_is_out_of_window():
    # the block of a W = 8 and a W = 5 column spans 8 positions; a write to
    # the narrow column's read at position c+5, inside the block but right of
    # its window, is caught by that column's own out-of-window check
    kernel = scwde.window._window_kernel
    columns = [Column(spec36(N=30, eps=e), WindowSchedule(W=W, T=2, variant="literal"))
               for e, W in ((0.40, 8), (0.42, 5))]

    def writing_kernel(ws, reads, eps_u, out):
        kernel(ws, reads, eps_u, out)
        reads[5 + 3 - 1, 1] = 0.5  # reads[0] is position c-w+1

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("scwde.window._window_kernel", writing_kernel)
        with pytest.raises(ChainCheckError, match="out-of-window positions changed"):
            run_columns(columns)


@pytest.mark.parametrize("value", [2.0, -1.0])
def test_rows_past_a_narrower_window_are_neither_checked_nor_written(value):
    # the block of a W = 5 and a W = 9 column spans 9 rows; the narrow
    # column's rows 5-8 of each sweep's output lie right of its window, so
    # junk there leaves both columns' runs as they are alone
    kernel = scwde.window._window_kernel
    columns = [Column(spec36(N=30, eps=e), WindowSchedule(W=W, T=3, variant="literal"))
               for e, W in ((0.42, 5), (0.40, 9))]
    alone = [run_wd(col.spec, col.sched, validate=True)[0] for col in columns]

    def junk_kernel(rows):
        def write(ws, reads, eps_u, out):
            kernel(ws, reads, eps_u, out)
            out[rows, 0] = value  # the columns in the order given
        return write

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("scwde.window._window_kernel", junk_kernel(np.s_[5:9]))
        finals = run_columns(columns)
    assert [(f.x.tobytes(), f.c) for f in finals] == [(f.x.tobytes(), f.c) for f in alone]
    # row 4 is the narrow column's own
    message = "erasure increased within window c=1, t=1" if value > 1 else r"left \[0, 1\]"
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("scwde.window._window_kernel", junk_kernel(4))
        with pytest.raises(ChainCheckError, match=message):
            run_columns(columns)


@pytest.mark.parametrize(("faults", "message"), [
    # only the narrow column rises, and only at t = 3
    ({3: (0, 1.0)}, "erasure increased within window c=1, t=3"),
    # a value left [0, 1] at t = 2 comes before a rise at t = 4 in the other column
    ({2: (0, -0.5), 4: (1, 1.0)}, r"erasure left \[0, 1\]$"),
])
def test_checks_at_window_end_name_the_first_failing_sweep(faults, message):
    # the checks of a W = 5 and W = 9 batch run when the window ends, over
    # every sweep, and report the first one that breaks the recursion
    kernel, calls = scwde.window._window_kernel, []
    columns = [Column(spec36(N=30, eps=e), WindowSchedule(W=W, T=5, variant="literal"))
               for e, W in ((0.42, 5), (0.40, 9))]

    def faulty_kernel(ws, reads, eps_u, out):
        calls.append(None)
        kernel(ws, reads, eps_u, out)
        if len(calls) in faults:  # the columns in the order given
            column, value = faults[len(calls)]
            out[0, column] = value

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("scwde.window._window_kernel", faulty_kernel)
        with pytest.raises(ChainCheckError, match=message):
            run_columns(columns)


@pytest.mark.parametrize("at", [2, 46], ids=["window-1", "last-window"])
def test_nan_fails_the_range_check_in_its_window(at):
    # N = 30, W = 8, T = 2: 23 windows of two sweeps; a NaN written on the
    # last sweep of a window raises when that window ends, before any other
    kernel, calls = scwde.window._window_kernel, []

    def nan_kernel(ws, reads, eps_u, out):
        calls.append(None)
        kernel(ws, reads, eps_u, out)
        if len(calls) == at:
            out[0] = np.nan

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr("scwde.window._window_kernel", nan_kernel)
        with pytest.raises(ChainCheckError, match=r"erasure left \[0, 1\]"):
            run_wd(spec36(N=30), WindowSchedule(W=8, T=2, variant="literal"), validate=True)
    assert len(calls) == at


@pytest.mark.parametrize("other", [
    {"spec": CoupledSpec(ens=UncoupledEnsemble.regular(4, 8), N=20, w=3, epsilon=0.4)},
    {"spec": CoupledSpec(ens=ENS36, N=21, w=3, epsilon=0.4)},
    {"spec": CoupledSpec(ens=ENS36, N=20, w=2, epsilon=0.4)},
    {"sched": WindowSchedule(W=8, T=3, variant="extended")},
    {"sched": WindowSchedule(W=8, T=3, variant="literal", T_first=5)},
], ids=["ensemble", "N", "w", "variant", "T_first"])
def test_columns_differ_only_in_epsilon_W_and_T(other):
    base = Column(CoupledSpec(ens=UncoupledEnsemble.regular(3, 6), N=20, w=3, epsilon=0.3),
                  WindowSchedule(W=8, T=2, variant="literal"))
    # epsilon, W and T may differ, and an equal ensemble need not be the same object
    assert len(run_columns([base, base._replace(spec=spec36(N=20, eps=0.4),
                                                sched=WindowSchedule(9, 5, "literal"))])) == 2
    with pytest.raises(ValueError, match="columns must differ only in epsilon, W and T"):
        run_columns([base, base._replace(**other)])


class TestSweepAndSlide:
    def test_first_sweep_pattern(self):
        after = first_window(spec36(w=3), WindowSchedule(W=11, T=6, variant="literal"))[1]
        for z in range(3, 12):  # interior in-window positions
            assert after[z - 1] == pytest.approx(0.42, rel=1e-14)
        assert after[0] == pytest.approx(0.42 / 3, rel=1e-14)
        assert after[1] == pytest.approx(0.42 * 2 / 3, rel=1e-14)
        assert np.all(after[11:] == 1.0)

    def test_zero_channel_first_sweep_erases_window(self):
        after = first_window(spec36(eps=0.0), WindowSchedule(W=11, T=1, variant="literal"))[1]
        assert np.all(after[:11] == 0.0) and np.all(after[11:] == 1.0)

    def test_outside_window_bit_identical(self):
        # every block holds row 0 outside its window: blocks are built from the
        # chain vector with only the window's rows taken from the sweeps
        spec = spec36(N=30)
        sched = WindowSchedule(W=11, T=4, variant="extended")
        _, blocks = recorded_run(spec, sched)
        for c in sorted(blocks):
            block = blocks[c]
            inside = np.zeros(spec.chain_len, dtype=bool)
            inside[c - 1 : c - 1 + sched.W] = True
            assert np.all(block[:, ~inside] == block[0, ~inside])

    def test_monotone_in_iteration(self):
        spec = spec36()
        _, blocks = recorded_run(spec, WindowSchedule(W=11, T=6, variant="literal"))
        for c in sorted(blocks):
            assert np.all(np.diff(blocks[c], axis=0) <= 1e-12)

    def test_slide_keeps_vector_and_resets_t(self):
        spec = spec36()
        sched = WindowSchedule(W=11, T=2, variant="literal", T_first=5)
        _, blocks = recorded_run(spec, sched, record_windows=[1, 2])
        assert blocks[1].shape[0] == 6
        assert blocks[2].shape[0] == 3
        assert np.array_equal(blocks[2][0], blocks[1][-1])


class TestRunWd:
    def test_zero_channel_clears_covered_positions(self):
        spec = spec36(eps=0.0)
        sched = WindowSchedule(W=11, T=1, variant="literal")
        final, _ = run_wd(spec, sched, validate=True)
        assert np.all(final.x[: spec.N] <= 1e-12)

    @pytest.mark.parametrize(
        ("broken", "message"),
        [
            (lambda reads, new: new * 0.0 + 1.0 + 1e-9,
             "erasure increased within window c=1, t=1"),
            (lambda reads, new: -new - 1e-6, r"erasure left \[0, 1\]"),
            # the last read lies right of the window, w-1 positions beyond it
            (lambda reads, new: reads.__setitem__(-1, 0.5) or new,
             "out-of-window positions changed"),
            # the first read lies left of the window, w-1 positions before it
            (lambda reads, new: reads.__setitem__(0, 0.5) or new,
             "out-of-window positions changed"),
        ],
        ids=["rise", "range", "outside", "outside-left"],
    )
    def test_broken_sweep_is_a_chain_check_error(self, monkeypatch, broken, message):
        kernel = scwde.window._window_kernel

        def broken_kernel(ws, reads, eps_u, out):
            kernel(ws, reads, eps_u, out)
            out[...] = broken(reads, out)

        monkeypatch.setattr("scwde.window._window_kernel", broken_kernel)
        with pytest.raises(ChainCheckError, match=message):
            run_wd(spec36(N=30), WindowSchedule(W=8, T=2, variant="literal"), validate=True)

    def test_window_larger_than_chain_rejected(self):
        spec = spec36(N=5)
        sched = WindowSchedule(W=11, T=1, variant="literal")
        with pytest.raises(ValueError, match="exceeds"):
            run_wd(spec, sched, validate=True)

    def test_deterministic_replay(self):
        spec = spec36()
        sched = WindowSchedule(W=11, T=6, variant="literal")
        a, _ = run_wd(spec, sched, validate=True)
        b, _ = run_wd(spec, sched, validate=True)
        assert np.array_equal(a.x, b.x)

    def test_extended_schedule_updates_tail(self):
        spec = spec36(N=30)
        lit, _ = run_wd(spec, WindowSchedule(W=8, T=20, variant="literal"), validate=True)
        ext, _ = run_wd(spec, WindowSchedule(W=8, T=20, variant="extended"), validate=True)
        # tail checks stay at the initial value under the literal rule only
        assert np.all(lit.x[spec.N :] == 1.0)
        assert np.all(ext.x[spec.N :] < 1.0)

    def test_generous_iterations_decode_successfully(self):
        spec = spec36()
        sched = WindowSchedule(W=11, T=50, variant="extended")
        final, _ = run_wd(spec, sched, validate=True)
        assert decode_success(final, spec).success

    def test_trajectory_layout(self):
        spec = spec36(N=20)
        sched = WindowSchedule(W=8, T=3, variant="literal")
        final, blocks = recorded_run(spec, sched)
        assert sorted(blocks) == list(range(1, 14))
        assert blocks[5].shape == (4, spec.chain_len)
        assert np.array_equal(blocks[13][3], final.x)
        # hand-off identity: next window's t=0 equals previous window's t=T
        for c in range(1, 13):
            assert np.array_equal(blocks[c][3], blocks[c + 1][0])

    def test_stop_sees_each_window_and_ends_at_first_true(self):
        spec = spec36(N=20)
        sched = WindowSchedule(W=8, T=3, variant="literal")
        _, full = recorded_run(spec, sched)

        def run_with(stop_at):
            seen = []

            def stop(c, x):
                seen.append((c, x.copy()))
                return c in stop_at

            final, blocks = recorded_run(spec, sched, stop=stop)
            # called once per window run, in order, with the state after it
            assert [c for c, _ in seen] == list(range(1, final.c + 1))
            assert all(np.array_equal(x, full[c][-1]) for c, x in seen)
            return final, blocks

        final, blocks = run_with({5, 7})
        assert sorted(blocks) == [1, 2, 3, 4, 5]
        assert final.c == 5
        assert np.array_equal(final.x, full[5][-1])
        # a hook that never returns true runs the whole schedule
        final, _ = run_with(set())
        assert final.c == 13 and np.array_equal(final.x, full[13][-1])

    def test_blocks_handed_over_as_each_window_ends(self):
        # on_block gets every window's read-only block, in order and before
        # stop, up to the window stop ends the run at; run_wd's second item
        # is always None
        spec = spec36(N=20)
        sched = WindowSchedule(W=8, T=3, variant="literal", T_first=5)
        _, full = recorded_run(spec, sched)
        events = []

        def on_block(c, block):
            assert not block.flags.writeable
            events.append(("block", c, block))

        def stop(c, x):
            events.append(("stop", c, None))
            return c == 6

        [final] = run_columns([Column(spec, sched, stop, on_block)])
        assert final.c == 6
        assert run_wd(spec, sched, validate=True)[1] is None
        assert [e[:2] for e in events] == [
            (kind, c) for c in range(1, 7) for kind in ("block", "stop")]
        for kind, c, block in events:
            if kind == "block":
                assert np.array_equal(block, full[c])

    def test_monotone_across_configurations(self):
        spec = spec36(N=30)
        sched = WindowSchedule(W=8, T=4, variant="literal")
        _, blocks = recorded_run(spec, sched)
        for c in range(1, 23):
            cur, nxt = blocks[c], blocks[c + 1]
            rows = min(cur.shape[0], nxt.shape[0])
            assert np.all(nxt[:rows] <= cur[:rows] + 1e-12)

    def test_first_window_warm_start(self):
        spec = spec36(N=30)
        sched = WindowSchedule(W=8, T=3, variant="literal", T_first=20)
        _, blocks = recorded_run(spec, sched)
        assert blocks[1].shape[0] == 21
        assert blocks[2].shape[0] == 4


class TestDecodeSuccess:
    def test_all_zero_succeeds(self):
        spec = spec36()
        state = DEState(x=np.zeros(spec.chain_len), c=1)
        rep = decode_success(state, spec)
        assert rep.success and rep.avg == 0.0 and rep.max == 0.0

    def test_all_ones_fails(self):
        spec = spec36()
        rep = decode_success(DEState(x=np.ones(spec.chain_len), c=1), spec)
        assert not rep.success

    def test_max_policy_is_stricter(self):
        spec = spec36(N=10, w=1)
        x = np.zeros(spec.chain_len)
        x[3] = 5e-6  # avg 5e-7 < 1e-6 < max
        state = DEState(x=x, c=1)
        assert decode_success(state, spec, SuccessRule(policy="average")).success
        assert not decode_success(state, spec, SuccessRule(policy="max")).success

    def test_bad_policy_rejected(self):
        spec = spec36()
        with pytest.raises(ValueError):
            decode_success(DEState(x=np.ones(spec.chain_len), c=1), spec,
                           SuccessRule(policy="median"))


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
    sched = WindowSchedule(W=W, T=T, variant="literal")
    final, blocks = recorded_run(spec, sched)
    assert np.all(final.x >= 0.0) and np.all(final.x <= 1.0)
    for c in sorted(blocks):
        block = blocks[c]
        assert np.all(block >= 0.0) and np.all(block <= 1.0)
        assert np.all(np.diff(block, axis=0) <= 1e-12)


def abort_window(spec, sched, rule):
    """The window where the search's stop rule failed the run; inf when it never did."""
    stop = _FrozenPrefixStop(spec, rule)
    [final] = run_columns([Column(spec, sched, stop)])
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
    fewer, fewer_blocks = recorded_run(spec, fewer_sched)
    more, more_blocks = recorded_run(spec, more_sched)
    assert np.all(more.x <= fewer.x + MONOTONE_SLACK)
    for c in sorted(fewer_blocks):
        assert np.all(more_blocks[c][-1] <= fewer_blocks[c][-1] + MONOTONE_SLACK)
    rule = SuccessRule(threshold, policy)
    assert abort_window(spec, more_sched, rule) >= abort_window(spec, fewer_sched, rule)


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
    full, full_blocks = recorded_run(spec, sched)
    if threshold == "tie":
        metric = decode_success(full, spec, SuccessRule(policy=policy)).metric
        threshold = max(float(np.nextafter(metric, 1.0)), 1e-300)
    rule = SuccessRule(threshold, policy)
    verdict = decode_success(full, spec, rule)
    stop = _FrozenPrefixStop(spec, rule)
    stopped, blocks = recorded_run(spec, sched, stop=stop)
    if stop.failed_at is not None:
        assert stopped.c == stop.failed_at
        assert not verdict.success
    else:
        assert np.array_equal(stopped.x, full.x)
    # a stopped run keeps the windows it ran, as the full run recorded them
    assert sorted(blocks) == list(range(1, stopped.c + 1))
    assert all(np.array_equal(blocks[c], full_blocks[c]) for c in sorted(blocks))
    # a run stopped after window c_stop survives it unless the rule failed it by then
    c_stop = data.draw(st.integers(min_value=1, max_value=sched.c_max(spec)))
    prefix_stop = _FrozenPrefixStop(spec, rule, c_stop)
    [prefix] = run_columns([Column(spec, sched, prefix_stop)])
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
            assert decode_success(full, spec, SuccessRule(tie)).success
            assert abort_window(spec, sched, SuccessRule(tie, "average")) == math.inf
            # a threshold clearly below the average does stop the run
            assert abort_window(spec, sched, SuccessRule(avg * (1 - 1e-6), "average")) < math.inf


class TestAbortArguments:
    def test_unknown_policy_rejected(self):
        with pytest.raises(ValueError, match="policy"):
            _FrozenPrefixStop(spec36(N=10, w=2), SuccessRule(1e-6, "median"))
