"""Steady-state heat transport in boundary-driven coupled cavity arrays.

Three mutually cross-validating computational paths:

- ``closedform``: exact closed-form moments, currents, switch classification,
  and rectification for the two-cavity system;
- ``chain``: the steady state of an N-cavity array as one N x N Lyapunov
  equation per atomic sector, solved for a whole stack of sectors at once;
  ``moments`` treats two cavities as the N = 2 chain, solves a sweep grid
  (``PairGrid``, one array per parameter) as one stack, and integrates the
  moment equations in time;
- ``fockspace``: a brute-force Lindbladian oracle on a truncated Fock space,
  with every field operator held as a numpy gather.

``cli`` exposes named sweep experiments with CSV/JSON output.
"""

from .model import (
    ArraySystem,
    AtomSpec,
    PairGrid,
    ReservoirSpec,
    SolverError,
    TwoCavitySystem,
    ValidationError,
    atomic_sectors,
    bose_occupation,
    sector_weights,
    validate,
    validation_errors,
)
from .closedform import (
    CurrentReport,
    RectificationResult,
    SteadyMoments,
    classify_regime,
    current_general,
    current_pm,
    current_resonant_with_atom,
    peak_rate,
    rectification,
    steady_moments,
)
from .moments import MomentTrajectory, evolve, sweep_currents
from .chain import (
    MomentMatrix,
    ballistic_current,
    boundary_currents,
    occupation_profile,
    size_scan,
    steady_state_matrix,
)
from .fockspace import (
    DensityMatrix,
    FockConfig,
    converged_steady_rho,
    g2_zero,
    oracle_currents,
    steady_rho,
    thermal_fidelity,
    thermal_state,
)


__all__ = [
    "ArraySystem",
    "AtomSpec",
    "PairGrid",
    "ReservoirSpec",
    "SolverError",
    "TwoCavitySystem",
    "ValidationError",
    "atomic_sectors",
    "bose_occupation",
    "sector_weights",
    "validate",
    "validation_errors",
    "CurrentReport",
    "RectificationResult",
    "SteadyMoments",
    "classify_regime",
    "current_general",
    "current_pm",
    "current_resonant_with_atom",
    "peak_rate",
    "rectification",
    "steady_moments",
    "MomentTrajectory",
    "evolve",
    "sweep_currents",
    "MomentMatrix",
    "ballistic_current",
    "boundary_currents",
    "occupation_profile",
    "size_scan",
    "steady_state_matrix",
    "DensityMatrix",
    "FockConfig",
    "converged_steady_rho",
    "g2_zero",
    "oracle_currents",
    "steady_rho",
    "thermal_fidelity",
    "thermal_state",
]


__version__ = "0.1.0"
