"""Density evolution and wave-speed analysis for spatially coupled LDPC
ensembles under windowed decoding on the binary erasure channel."""

import os

# The package makes no BLAS call, so an OpenBLAS thread pool only spins and burns
# CPU; this must run before numpy loads, and keeps any value the user set.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .coupled import CoupledPotentialContext, coupled_potential
from .poly import DegreePolynomial, from_pairs, monomial, parse_polynomial
from .scalar import (
    NonConvergence,
    PotentialLandscape,
    UncoupledEnsemble,
    bp_threshold,
    de_step,
    landscape,
    map_threshold,
    potential,
    potential_d1,
    potential_d2,
)
from .speed import (
    SpeedReport,
    LandscapeBounds,
    bound_a1,
    bound_th2,
    measure_speed,
)
from .window import (
    ChainCheckError,
    CoupledSpec,
    DEState,
    SuccessReport,
    SuccessRule,
    WindowSchedule,
    decode_success,
    run_wd,
)

__all__ = [
    "ChainCheckError",
    "CoupledPotentialContext",
    "CoupledSpec",
    "DEState",
    "DegreePolynomial",
    "NonConvergence",
    "PotentialLandscape",
    "SpeedReport",
    "SuccessReport",
    "SuccessRule",
    "LandscapeBounds",
    "UncoupledEnsemble",
    "WindowSchedule",
    "bound_a1",
    "bound_th2",
    "bp_threshold",
    "coupled_potential",
    "de_step",
    "decode_success",
    "from_pairs",
    "landscape",
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
