"""Demand inversion for discrete-choice models.

Finds mean utilities x with sigma(x) = sigma* by minimizing the convex
objective U(x) - x'sigma*, whose gradient is exactly sigma(x) - sigma*.
Ships random-coefficients logit and pure-characteristics evaluators, three
solvers (BLP contraction, convex trust-region Newton, residual Gauss-Newton),
and a seeded replication harness with CSV/JSON exports.
"""

from .core import (
    EULER_GAMMA,
    DemandModel,
    InvalidInputError,
    ModelEvaluation,
    UnsupportedTargetError,
    as_mean_utility,
    as_share_vector,
    convex_objective,
)
from .harness import (
    WORKERS_ENV,
    DegeneracyStats,
    ExperimentSpec,
    MethodBand,
    SuiteResult,
    TraceBand,
    empirical_rate,
    perturb_start,
    run_suite,
)
from .logit import LogitMarket, make_logit_instance
from .purechar import (
    OUTSIDE,
    EnvelopeSegment,
    PureCharMarket,
    make_purechar_instance,
    upper_envelope,
)
from .solvers import (
    METHODS,
    InversionResult,
    SolverConfig,
    contraction_invert,
    convex_trust_region_invert,
    invert,
    residual_trust_region_invert,
)

__version__ = "0.1.0"

__all__ = [
    "EULER_GAMMA",
    "METHODS",
    "OUTSIDE",
    "WORKERS_ENV",
    "DegeneracyStats",
    "DemandModel",
    "EnvelopeSegment",
    "ExperimentSpec",
    "InvalidInputError",
    "InversionResult",
    "LogitMarket",
    "MethodBand",
    "ModelEvaluation",
    "PureCharMarket",
    "SolverConfig",
    "SuiteResult",
    "TraceBand",
    "UnsupportedTargetError",
    "as_mean_utility",
    "as_share_vector",
    "contraction_invert",
    "convex_objective",
    "convex_trust_region_invert",
    "empirical_rate",
    "invert",
    "make_logit_instance",
    "make_purechar_instance",
    "perturb_start",
    "residual_trust_region_invert",
    "run_suite",
    "upper_envelope",
    "__version__",
]
