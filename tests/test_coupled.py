from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    SWEEP_ENSEMBLES,
    delta_u1_by_definition,
    gradient_by_definition,
    horner_out_of_place,
    moving_mean_out_of_place,
    recorded_run,
    window_reads_out_of_place,
)
from scwde.coupled import coupled_potential
from scwde.scalar import UncoupledEnsemble, potential
from scwde.window import Column, CoupledSpec, WindowSchedule, run_columns

ENS36 = UncoupledEnsemble.regular(3, 6)


class Config(NamedTuple):
    """A window configuration c of a run: ``coupled_potential(x, *ctx)``."""

    spec: CoupledSpec
    sched: WindowSchedule
    c: int


def make_ctx(N=40, w=3, eps=0.42, W=8, T=6, c=15):
    spec = CoupledSpec(ens=ENS36, N=N, w=w, epsilon=eps)
    sched = WindowSchedule(W=W, T=T, variant="literal")
    return Config(spec, sched, c)


def gradient(x, ctx):
    return gradient_by_definition(x, ctx.c, ctx.sched.W, ctx.spec)


def delta_u1(y, x, ctx):
    return delta_u1_by_definition(y, x, ctx.c, ctx.sched.W, ctx.spec)


def alpha_check(y, x, ctx, alpha):
    """alpha (U(y) - U(x)) against the first-order term DeltaU1(y, x):
    (lhs, rhs, whether lhs <= rhs + 1e-12)."""
    lhs = alpha * (coupled_potential(y, *ctx) - coupled_potential(x, *ctx))
    rhs = delta_u1(y, x, ctx)
    return lhs, rhs, lhs <= rhs + 1e-12


class TestCoupledPotential:
    def test_zero_state_has_zero_potential(self):
        ctx = make_ctx()
        x = np.zeros(ctx.spec.chain_len)
        assert coupled_potential(x, *ctx) == 0.0

    def test_constant_interior_state_collapses_to_scalar(self):
        # deep-interior window on a constant vector: the coupled averages
        # reduce to scalar terms, one per position in the sum range
        ctx = make_ctx(N=40, w=3, W=8, c=15)
        level = 0.37
        x = np.full(ctx.spec.chain_len, level)
        expected = (ctx.sched.W + ctx.spec.w - 1) * potential(level, 0.42, ENS36)
        assert coupled_potential(x, *ctx) == pytest.approx(expected, abs=1e-12)

    def test_window_configuration_bounds_checked(self):
        spec, sched, _ = make_ctx()
        with pytest.raises(ValueError, match="window configuration 50 outside 1..33"):
            coupled_potential(np.zeros(spec.chain_len), spec, sched, 50)

    def test_schedule_wider_than_chain_rejected(self):
        spec, sched, _ = make_ctx(N=7, W=8)
        with pytest.raises(ValueError, match="exceeds coupling length"):
            coupled_potential(np.zeros(spec.chain_len), spec, sched, 1)


def potential_by_definition(x, ctx):
    """The coupled potential under configuration c, one position at a time.

    Sums over z = c-(w-1)..c+W-1 the free term (1 - R(1-x_z))/R'(1) -
    x_z rho(1-x_z) minus the channel term (eps_z/L'(1)) L(1 - S_z), where
    S_z = (1/w) sum_{j<w} rho(1 - x_{z+j}), x reads as zero outside
    1..N+w-1 and eps_z = eps only on 1..N.
    """
    spec, ens, w = ctx.spec, ctx.spec.ens, ctx.spec.w

    def read(p):
        return float(x[p - 1]) if 1 <= p <= spec.chain_len else 0.0

    total = 0.0
    for z in range(ctx.c - w + 1, ctx.c + ctx.sched.W):
        x_z = read(z)
        free = (1.0 - ens.R(1.0 - x_z)) / ens.R_prime_1 - x_z * ens.rho(1.0 - x_z)
        s = sum(ens.rho(1.0 - read(z + j)) for j in range(w)) / w
        eps_z = spec.epsilon if 1 <= z <= spec.N else 0.0
        total += free - eps_z / ens.L_prime_1 * ens.L(1.0 - s)
    return total


@settings(max_examples=60, deadline=None)
@given(
    N=st.integers(min_value=1, max_value=20),
    w=st.integers(min_value=1, max_value=4),
    eps=st.floats(min_value=0.0, max_value=1.0),
    ens=st.sampled_from([
        ENS36,
        UncoupledEnsemble.regular(4, 8),
        UncoupledEnsemble.from_specs([[2, 0.4], [3, 0.6]], [[5, 0.5], [6, 0.5]]),
    ]),
    data=st.data(),
)
def test_coupled_potential_matches_definition(N, w, eps, ens, data):
    W = data.draw(st.integers(min_value=1, max_value=N))
    spec = CoupledSpec(ens=ens, N=N, w=w, epsilon=eps)
    sched = WindowSchedule(W=W, T=1, variant="extended")
    x = np.array(data.draw(st.lists(st.floats(min_value=0.0, max_value=1.0),
                                    min_size=spec.chain_len, max_size=spec.chain_len)))
    # every configuration of the extended schedule: c = 1 reads left of the
    # chain, the last ones run into the termination tail
    for c in range(1, sched.c_max(spec) + 1):
        ctx = Config(spec, sched, c)
        assert coupled_potential(x, *ctx) == pytest.approx(
            potential_by_definition(x, ctx), rel=0, abs=1e-12)


@settings(max_examples=60, deadline=None)
@given(
    N=st.integers(min_value=1, max_value=20),
    w=st.integers(min_value=1, max_value=4),
    ens=st.sampled_from([
        ENS36,
        UncoupledEnsemble.from_specs([[2, 0.4], [3, 0.6]], [[5, 0.5], [6, 0.5]]),
    ]),
    rows=st.integers(min_value=1, max_value=8),
    data=st.data(),
)
def test_block_potential_equals_rows_bitwise(N, w, ens, rows, data):
    # a (rows, N+w-1) block gives, bit for bit, the per-row potentials, each
    # a Python float, in the first and last windows and one drawn between
    W = data.draw(st.integers(min_value=1, max_value=N))
    spec = CoupledSpec(ens=ens, N=N, w=w, epsilon=0.42)
    sched = WindowSchedule(W=W, T=1, variant="extended")
    block = np.array(data.draw(st.lists(
        st.lists(st.floats(min_value=0.0, max_value=1.0),
                 min_size=spec.chain_len, max_size=spec.chain_len),
        min_size=rows, max_size=rows)))
    c_max = sched.c_max(spec)
    for c in {1, data.draw(st.integers(min_value=1, max_value=c_max)), c_max}:
        ctx = Config(spec, sched, c)
        per_row = [coupled_potential(x, *ctx) for x in block]
        assert all(type(u) is float for u in per_row)
        got = coupled_potential(block, *ctx)
        assert got.shape == (rows,)
        assert got.view(np.int64).tolist() == np.array(per_row).view(np.int64).tolist()


def potential_out_of_place(x, ctx):
    """``coupled_potential``'s formula in its order of operations, each step
    on new arrays: one value per row of a block (last axis)."""
    spec, ens, w = ctx.spec, ctx.spec.ens, ctx.spec.w
    reads, eps = window_reads_out_of_place(x, ctx.c, ctx.sched.W, spec)
    rho_vals = horner_out_of_place(ens.rho, 1.0 - reads)
    s = moving_mean_out_of_place(rho_vals, w)
    xs, rho_xs = reads[..., : len(eps)], rho_vals[..., : len(eps)]
    free = (1.0 - horner_out_of_place(ens.R, 1.0 - xs)) / ens.R_prime_1 - xs * rho_xs
    channel = (eps / ens.L_prime_1) * horner_out_of_place(ens.L, 1.0 - s)
    return np.sum(free - channel, axis=-1)


@settings(max_examples=60, deadline=None)
@given(
    ens=st.sampled_from(SWEEP_ENSEMBLES),
    N=st.integers(min_value=1, max_value=16),
    w=st.integers(min_value=1, max_value=5),
    eps=st.floats(min_value=0.0, max_value=1.0),
    rows=st.integers(min_value=1, max_value=4),
    data=st.data(),
)
def test_block_potential_matches_out_of_place_arithmetic_bitwise(ens, N, w, eps, rows, data):
    # the shared buffered check stage rounds as new arrays do, in every
    # configuration of the extended schedule
    W = data.draw(st.integers(min_value=1, max_value=N))
    spec = CoupledSpec(ens=ens, N=N, w=w, epsilon=eps)
    sched = WindowSchedule(W=W, T=1, variant="extended")
    block = np.array(data.draw(st.lists(
        st.lists(st.floats(min_value=0.0, max_value=1.0),
                 min_size=spec.chain_len, max_size=spec.chain_len),
        min_size=rows, max_size=rows)))
    for c in range(1, sched.c_max(spec) + 1):
        ctx = Config(spec, sched, c)
        assert coupled_potential(block, *ctx).tobytes() == potential_out_of_place(block, ctx).tobytes()


class TestCoupledGradient:
    """The engine's potential against the gradient identity
    dU/dx_z = rho'(1-x_z) (x_z - f(z, x)), written from the definition."""

    def test_all_ones_interior_matches_closed_form(self):
        ctx = make_ctx()
        x = np.ones(ctx.spec.chain_len)
        grad = gradient(x, ctx)
        # every in-window position sees f = epsilon on the all-ones state
        expected = ENS36.rho_d1(0.0) * (1.0 - 0.42)
        assert np.allclose(grad, expected, atol=1e-15)

    def test_matches_finite_differences_on_random_states(self):
        ctx = make_ctx()
        rng = np.random.default_rng(42)
        h = 1e-6
        for _ in range(10):
            x = rng.uniform(0.05, 0.95, ctx.spec.chain_len)
            grad = gradient(x, ctx)
            for j, z in enumerate(range(ctx.c, ctx.c + ctx.sched.W)):
                up, down = x.copy(), x.copy()
                up[z - 1] += h
                down[z - 1] -= h
                fd = (coupled_potential(up, *ctx) - coupled_potential(down, *ctx)) / (2 * h)
                assert grad[j] == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_vanishes_at_window_fixed_point(self):
        # window 15 of a run, swept 500 times: the engine's fixed point
        spec = CoupledSpec(ens=ENS36, N=40, w=3, epsilon=0.42)
        sched = WindowSchedule(W=8, T=500, variant="literal")
        ctx = Config(spec, sched, 15)
        [final] = run_columns([Column(spec, sched, stop=lambda c, x: c == 15)])
        assert final.c == 15
        assert np.linalg.norm(gradient(final.x, ctx)) < 1e-8


class TestDeltaU1:
    def test_zero_displacement(self):
        ctx = make_ctx()
        x = np.linspace(0.2, 0.8, ctx.spec.chain_len)
        assert delta_u1(x, x, ctx) == 0.0

    def test_linearity_in_displacement(self):
        ctx = make_ctx()
        rng = np.random.default_rng(3)
        x = rng.uniform(0.1, 0.9, ctx.spec.chain_len)
        h = np.zeros_like(x)
        h[ctx.c - 1 : ctx.c - 1 + ctx.sched.W] = rng.uniform(-0.01, 0.01, ctx.sched.W)
        one = delta_u1(x + h, x, ctx)
        two = delta_u1(x + 2 * h, x, ctx)
        assert two == pytest.approx(2 * one, rel=1e-12)

    def test_successor_sweep_identity(self):
        # y the engine's next sweep of x: the first-order term collapses to
        # -sum rho'(1-x_z) (y_z - x_z)^2 over the window
        spec = CoupledSpec(ens=ENS36, N=40, w=3, epsilon=0.42)
        sched = WindowSchedule(W=8, T=6, variant="literal")
        ctx = Config(spec, sched, 15)
        _, blocks = recorded_run(spec, sched, record_windows=[15])
        x, y = blocks[15][:2]
        got = delta_u1(y, x, ctx)
        zs = slice(14, 22)
        expected = -np.sum(ENS36.rho_d1(1.0 - x[zs]) * (y[zs] - x[zs]) ** 2)
        assert got == pytest.approx(expected, rel=1e-12)


class TestAlphaInequality:
    def test_trivial_equality_at_zero_displacement(self):
        ctx = make_ctx()
        x = np.linspace(0.1, 0.9, ctx.spec.chain_len)
        lhs, rhs, holds = alpha_check(x, x, ctx, alpha=1.0)
        assert lhs == 0.0 and rhs == 0.0 and holds

    def test_taylor_constant_exists_in_range_along_steady_sweeps(self):
        # per sweep there is an alpha in [1, 2] making the first-order bound
        # hold; alpha = 2 works at every sweep of this steady profile, while
        # alpha = 1 is violated by a few percent on the relaxation sweeps
        # (the trail coordinates sit in the convex basin of the potential)
        spec = CoupledSpec(ens=ENS36, N=60, w=3, epsilon=0.42)
        sched = WindowSchedule(W=11, T=6, variant="literal")
        _, blocks = recorded_run(spec, sched)
        saw_alpha1_violation = False
        for c in (30, 35, 40):
            ctx = Config(spec, sched, c)
            block = blocks[c]
            for t in range(block.shape[0] - 1):
                y, x = block[t + 1], block[t]
                lhs, d1, holds = alpha_check(y, x, ctx, alpha=2.0)
                assert holds, (c, t, lhs, d1)
                drop = coupled_potential(y, *ctx) - coupled_potential(x, *ctx)
                if drop < 0:
                    needed = d1 / drop
                    assert needed <= 2.0 + 1e-9, (c, t, needed)
                    if needed > 1.0 + 1e-9:
                        saw_alpha1_violation = True
        assert saw_alpha1_violation

    def test_alpha_two_diagnostic_runs(self):
        spec = CoupledSpec(ens=ENS36, N=60, w=3, epsilon=0.42)
        sched = WindowSchedule(W=11, T=6, variant="literal")
        _, blocks = recorded_run(spec, sched)
        ctx = Config(spec, sched, 35)
        block = blocks[35]
        outcomes = [
            alpha_check(block[t + 1], block[t], ctx, alpha=2.0)[2]
            for t in range(block.shape[0] - 1)
        ]
        assert outcomes and all(outcomes)
