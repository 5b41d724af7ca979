"""Fractional-order eco-epidemiological dynamics toolkit.

A susceptible-infected-predator model with Caputo derivatives of
commensurate order alpha in (0, 1]: numerical integration (fractional
Adams-Bashforth-Moulton PECE), closed-form equilibria and thresholds,
fractional-order stability classification, and numerical verification of
the model's boundedness and global-stability guarantees.

Entry points:

>>> from fracoepi import preset, solve_model, equilibria, thresholds
>>> p = preset("example1")
>>> traj = solve_model(p.params, 0.95, p.initial_states[0], 0.05, 200.0)
>>> [round(float(v), 2) for v in traj.final_state]
[22.89, 13.16, 3.41]

The command-line interface lives in :mod:`fracoepi.cli` (``fracoepi --help``).
"""

from .mittag_leffler import AccuracyError, ml_one, ml_two
from .model import (
    Equilibrium,
    EquilibriumKind,
    ModelParams,
    PRESETS,
    State,
    Thresholds,
    ValidationError,
    equilibria,
    equilibrium,
    preset,
    rhs,
    thresholds,
    vector_field,
)
from .runs import cached_solve, solve_many, solve_model
from .solver import (
    DivergenceError,
    FodeProblem,
    SolverConfig,
    Trajectory,
    abm_weights,
    solve_pece,
)
from .stability import (
    CubicCharacteristic,
    EigenSpectrum,
    StabilityVerdict,
    characteristic_cubic,
    classify_equilibrium,
    cubic_roots,
    jacobian,
    matignon_check,
)
from .verification import (
    boundedness_certificate,
    check_nonnegativity,
    convergence_check,
    lipschitz_bound,
    lyapunov_monotonicity,
)

__version__ = "0.1.0"

__all__ = [
    "AccuracyError",
    "CubicCharacteristic",
    "DivergenceError",
    "EigenSpectrum",
    "Equilibrium",
    "EquilibriumKind",
    "FodeProblem",
    "ModelParams",
    "PRESETS",
    "SolverConfig",
    "StabilityVerdict",
    "State",
    "Thresholds",
    "Trajectory",
    "ValidationError",
    "abm_weights",
    "boundedness_certificate",
    "cached_solve",
    "characteristic_cubic",
    "check_nonnegativity",
    "classify_equilibrium",
    "convergence_check",
    "cubic_roots",
    "equilibria",
    "equilibrium",
    "jacobian",
    "lipschitz_bound",
    "lyapunov_monotonicity",
    "matignon_check",
    "ml_one",
    "ml_two",
    "preset",
    "rhs",
    "solve_many",
    "solve_model",
    "solve_pece",
    "thresholds",
    "vector_field",
    "__version__",
]
