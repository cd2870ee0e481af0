"""Potential function of the coupled ensemble under a window configuration."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .window import CoupledSpec, WindowSchedule, window_check_stage


@dataclass(frozen=True)
class CoupledPotentialContext:
    """Fixes the window configuration c."""

    spec: CoupledSpec
    sched: WindowSchedule
    c: int

    def __post_init__(self) -> None:
        self.sched.validate(self.spec)
        if not 1 <= self.c <= self.sched.c_max(self.spec):
            raise ValueError(
                f"window configuration {self.c} outside 1..{self.sched.c_max(self.spec)}"
            )


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
