"""Rigorous bounds on kinetic-energy and eigenvalue-sum constants.

The package computes two families of dimensionless ratios: k_ratio, the
factor by which a kinetic-energy inequality beats its semiclassical
constant, and l_ratio, the dual factor for sums of negative eigenvalue
powers.  Closed-form bounds live in `constants`, trial-function machinery
in `trial` and `functionals`, derivative-free optimization in `optimize`,
and an independent finite-difference spectral check in `verify`.
"""

from .constants import (
    CONJECTURED_1D_L_RATIO,
    LIFTED_1D_L_RATIO,
    UNIVERSAL_L_RATIO,
    BoundReport,
    DeficitMin,
    bound_best_of,
    bound_from_c,
    bound_momentum_optimal,
    bound_rumin_original,
    deficit_min,
    k_cl,
    l_cl,
    l_cl_general,
    large_d_limit_probe,
    product_identity_check,
)
from .functionals import (
    DivergentError,
    ProblemSpec,
    averaging_objective,
    deficit_functional,
    weight_l2,
    weighted_deficit,
)
from .optimize import (
    ObjectiveFailureError,
    OptConfig,
    OptResult,
    default_seed,
    minimize_averaging,
    minimize_deficit,
    run_sweep,
)
from .quad import NonFiniteIntegrandError, QuadResult, integrate
from .specfun import log_beta, log_gamma, unit_ball_volume
from .trial import (
    ConstraintViolationError,
    ProfileFamily,
    WeightFamily,
    eval_profile,
    eval_weight,
    normalize_profile,
    normalize_weight,
    one_minus_profile,
)
from .verify import (
    GridSpec,
    GridTooCoarseWarning,
    InequalityCheck,
    PotentialSpec,
    SpectrumResult,
    check_inequality,
    default_suite,
    discretize_and_solve,
    grid_from_json,
    potential_from_json,
    potential_integral,
    potential_values,
    sturm_count_below,
)

__version__ = "0.1.0"

__all__ = [
    "BoundReport",
    "CONJECTURED_1D_L_RATIO",
    "ConstraintViolationError",
    "DeficitMin",
    "DivergentError",
    "GridSpec",
    "GridTooCoarseWarning",
    "InequalityCheck",
    "LIFTED_1D_L_RATIO",
    "NonFiniteIntegrandError",
    "ObjectiveFailureError",
    "OptConfig",
    "OptResult",
    "PotentialSpec",
    "ProblemSpec",
    "ProfileFamily",
    "QuadResult",
    "SpectrumResult",
    "UNIVERSAL_L_RATIO",
    "WeightFamily",
    "averaging_objective",
    "bound_best_of",
    "bound_from_c",
    "bound_momentum_optimal",
    "bound_rumin_original",
    "check_inequality",
    "default_seed",
    "default_suite",
    "deficit_functional",
    "deficit_min",
    "discretize_and_solve",
    "eval_profile",
    "eval_weight",
    "grid_from_json",
    "integrate",
    "k_cl",
    "l_cl",
    "l_cl_general",
    "large_d_limit_probe",
    "log_beta",
    "log_gamma",
    "minimize_averaging",
    "minimize_deficit",
    "normalize_profile",
    "normalize_weight",
    "one_minus_profile",
    "potential_from_json",
    "potential_integral",
    "potential_values",
    "product_identity_check",
    "run_sweep",
    "sturm_count_below",
    "unit_ball_volume",
    "weight_l2",
    "weighted_deficit",
]
