"""Multivariate Meixner polynomials as birth-and-death eigenpolynomials.

Construction (secular eigenproblem -> u -> dual rates), two independent
evaluation routes (terminating matrix sum vs generating-function expansion),
lattice operators with factorization and eigen-identity checks, and the
spectral transition probability cross-validated by exact-jump simulation.
"""

from .errors import (
    CMassNotBelowOne,
    ConfigError,
    ConstraintViolation,
    DegenerateParameters,
    MeixnerError,
    NegativeTime,
    NonPositiveBeta,
    NonPositiveC,
    ParameterError,
    SingularGenfun,
    TailTooLarge,
    TruncationBoundary,
)
from .model import (
    ModelParams,
    enumerate_lattice,
    shifted_factorial,
    tail_bound,
    validate_params,
    weight,
)
from .polynomials import (
    TruncatedSeries,
    meixner_eval,
    poly_table,
)
from .spectral import (
    SpectralData,
    build_u,
    characteristic_matrix,
    degenerate_spectrum,
    solve,
    solve_spectrum,
)
from .operators import (
    build_H,
    eigen_check,
)
from .bdprocess import (
    chapman_kolmogorov_check,
    compare_sim_spectral,
    moment_check,
    orthogonality_check,
    simulate,
    transition_prob,
)

__version__ = "0.1.0"

__all__ = [
    "CMassNotBelowOne",
    "ConfigError",
    "ConstraintViolation",
    "DegenerateParameters",
    "MeixnerError",
    "ModelParams",
    "NegativeTime",
    "NonPositiveBeta",
    "NonPositiveC",
    "ParameterError",
    "SingularGenfun",
    "SpectralData",
    "TailTooLarge",
    "TruncatedSeries",
    "TruncationBoundary",
    "build_H",
    "build_u",
    "chapman_kolmogorov_check",
    "characteristic_matrix",
    "compare_sim_spectral",
    "degenerate_spectrum",
    "eigen_check",
    "enumerate_lattice",
    "meixner_eval",
    "moment_check",
    "orthogonality_check",
    "poly_table",
    "shifted_factorial",
    "simulate",
    "solve",
    "solve_spectrum",
    "tail_bound",
    "transition_prob",
    "validate_params",
    "weight",
]
