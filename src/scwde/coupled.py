"""Potential function of the coupled ensemble under a window configuration."""

from __future__ import annotations

import numpy as np

from .window import CoupledSpec, WindowSchedule, window_check_stage


def coupled_potential(
    x: np.ndarray, spec: CoupledSpec, sched: WindowSchedule, c: int
) -> float | np.ndarray:
    """Potential of the coupled state under window configuration c: a float
    for one state, one value per row for a block of states (last axis).

    Sums, over check positions z = c-(w-1)..c+W-1, the per-position free
    term and a channel term whose erasure factor is the position-dependent
    profile; out-of-range positions read as zero. With that profile the
    in-window partial derivatives are exactly
    rho'(1-x_z) * (x_z - f(z, x)). A schedule too wide for the chain or a
    c outside 1..c_max raises ValueError.
    """
    sched.validate(spec)
    if not 1 <= c <= sched.c_max(spec):
        raise ValueError(f"window configuration {c} outside 1..{sched.c_max(spec)}")
    ens = spec.ens
    reads, rho_vals, eps, s = window_check_stage(x, c, sched.W, spec)
    xs, rho_xs = reads[: len(eps)], rho_vals[: len(eps)]  # z = c-(w-1)..c+W-1
    free = (1.0 - ens.R(1.0 - xs)) / ens.R_prime_1 - xs * rho_xs
    channel = (eps / ens.L_prime_1) * ens.L(1.0 - s)
    # one state per row, each summed over a contiguous row (pairwise, as np.sum does)
    total = np.sum(np.ascontiguousarray((free - channel).T), axis=-1)
    return float(total[0]) if np.ndim(x) == 1 else total
