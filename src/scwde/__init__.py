"""Density evolution and wave-speed analysis for spatially coupled LDPC
ensembles under windowed decoding on the binary erasure channel."""

from .coupled import (
    AlphaCheck,
    CoupledPotentialContext,
    alpha_inequality_check,
    coupled_gradient,
    coupled_potential,
    delta_u1,
)
from .poly import DegreePolynomial, from_pairs, monomial, parse_polynomial
from .scalar import (
    DERunResult,
    NonConvergence,
    PotentialLandscape,
    UncoupledEnsemble,
    bp_threshold,
    de_run,
    de_step,
    landscape,
    map_threshold,
    potential,
    potential_d1,
    potential_d2,
)
from .speed import (
    SlopeMarginReport,
    SpeedReport,
    SteadyState,
    LandscapeBounds,
    bound_a1,
    bound_th2,
    detect_steady_state,
    slope_margin_check,
    measure_speed,
)
from .window import (
    CoupledSpec,
    DEState,
    SuccessReport,
    Trajectory,
    WindowSchedule,
    decode_success,
    run_wd,
)

__all__ = [
    "AlphaCheck",
    "CoupledPotentialContext",
    "CoupledSpec",
    "DERunResult",
    "DEState",
    "DegreePolynomial",
    "SlopeMarginReport",
    "NonConvergence",
    "PotentialLandscape",
    "SpeedReport",
    "SteadyState",
    "SuccessReport",
    "LandscapeBounds",
    "Trajectory",
    "UncoupledEnsemble",
    "WindowSchedule",
    "alpha_inequality_check",
    "bound_a1",
    "bound_th2",
    "bp_threshold",
    "coupled_gradient",
    "coupled_potential",
    "de_run",
    "de_step",
    "decode_success",
    "delta_u1",
    "detect_steady_state",
    "from_pairs",
    "landscape",
    "slope_margin_check",
    "map_threshold",
    "measure_speed",
    "monomial",
    "parse_polynomial",
    "potential",
    "potential_d1",
    "potential_d2",
    "run_wd",
]

__version__ = "0.1.0"
