"""Potential function of the coupled ensemble under a window configuration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .window import CoupledSpec, WindowSchedule, window_check_stage, window_update_values

ALPHA_TOL = 1e-12


@dataclass(frozen=True)
class CoupledPotentialContext:
    """Fixes the window configuration c and the Taylor constant alpha."""

    spec: CoupledSpec
    sched: WindowSchedule
    c: int
    alpha: float = 1.0

    def __post_init__(self) -> None:
        self.sched.validate(self.spec)
        if not 1 <= self.c <= self.sched.c_max(self.spec):
            raise ValueError(
                f"window configuration {self.c} outside 1..{self.sched.c_max(self.spec)}"
            )
        if not 1.0 <= self.alpha <= 2.0:
            raise ValueError("alpha must lie in [1, 2]")


def coupled_potential(x: np.ndarray, ctx: CoupledPotentialContext) -> float | np.ndarray:
    """Potential of the coupled state under window configuration c: a float
    for one state, one value per row for a block of states (last axis).

    Sums, over check positions z = c-(w-1)..c+W-1, the per-position free
    term and a channel term whose erasure factor is the position-dependent
    profile; out-of-range positions read as zero. With that profile the
    in-window partial derivatives are exactly
    rho'(1-x_z) * (x_z - f(z, x)).
    """
    ens = ctx.spec.ens
    reads, rho_vals, eps, s = window_check_stage(x, ctx.c, ctx.sched.W, ctx.spec)
    xs, rho_xs = reads[..., : len(eps)], rho_vals[..., : len(eps)]  # z = c-(w-1)..c+W-1
    free = (1.0 - ens.R(1.0 - xs)) / ens.R_prime_1 - xs * rho_xs
    channel = (eps / ens.L_prime_1) * ens.L(1.0 - s)
    total = np.sum(free - channel, axis=-1)
    return float(total) if total.ndim == 0 else total


def coupled_gradient(x: np.ndarray, ctx: CoupledPotentialContext) -> np.ndarray:
    """Partial derivatives of the coupled potential at the in-window positions.

    Entry j is d/dx_z at z = c+j, equal to rho'(1-x_z) (x_z - f(z, x));
    it vanishes exactly at fixed points of the windowed DE update.
    """
    spec = ctx.spec
    x = np.asarray(x, dtype=float)
    f_vals = window_update_values(x, ctx.c, ctx.sched.W, spec)
    xs = x[ctx.c - 1 : ctx.c - 1 + ctx.sched.W]
    return spec.ens.rho_d1(1.0 - xs) * (xs - f_vals)


def delta_u1(y: np.ndarray, x: np.ndarray, ctx: CoupledPotentialContext) -> float:
    """First-order Taylor term of the potential at x toward y (in-window sum)."""
    y = np.asarray(y, dtype=float)
    x = np.asarray(x, dtype=float)
    if y.shape != x.shape:
        raise ValueError("y and x must cover the same positions")
    grad = coupled_gradient(x, ctx)
    lo = ctx.c - 1
    return float(np.dot(grad, y[lo : lo + ctx.sched.W] - x[lo : lo + ctx.sched.W]))


@dataclass(frozen=True)
class AlphaCheck:
    lhs: float
    rhs: float
    holds: bool


def alpha_inequality_check(
    y: np.ndarray,
    x: np.ndarray,
    ctx: CoupledPotentialContext,
) -> AlphaCheck:
    """Check alpha * (U(y) - U(x)) <= DeltaU1(y, x) + ALPHA_TOL under configuration c."""
    lhs = ctx.alpha * (coupled_potential(y, ctx) - coupled_potential(x, ctx))
    rhs = delta_u1(y, x, ctx)
    return AlphaCheck(lhs=lhs, rhs=rhs, holds=bool(lhs <= rhs + ALPHA_TOL))
