"""Spectral square root of the Dirichlet Laplacian on intervals, rectangles and boxes.

The package builds the Dirichlet sine eigenbasis on uniform grids in one to
three dimensions, applies the half Laplacian and its inverse diagonally in that
basis, evaluates the harmonic extension to the half cylinder with its Dirichlet
energy and Dirichlet-to-Neumann map, solves the power nonlinearity problem by
the Anderson-accelerated Petviashvili iteration from the ground mode, and
verifies qualitative properties (positivity, symmetry, monotonicity, maximum
principles, boundary derivative sign, spectral stability margin) on the
computed solutions.
"""

from .basis import (
    AliasingError,
    DiscreteDomain,
    DomainError,
    DomainMismatchError,
    EigenBasis,
    GridFn,
    boundary_distance,
    eigenpairs,
    inner_product,
    make_interval,
    make_rectangle,
)
from .extension import (
    TruncationError,
    best_trace_constant,
    dtn_fd,
    evaluate_extension,
    extremal_quotient,
)
from .nonlinear import (
    ConfigError,
    SolveConfig,
    SolveReport,
    critical_exponent,
    solve,
    sweep,
)
from .spectral import (
    SpectralFn,
    UndefinedQuotientError,
    analyze,
    apply_A_half,
    apply_B_half,
    apply_inv_laplacian,
    dirichlet_energy,
    hardy_quotient,
    synthesize,
)
from .verification import (
    CheckReport,
    check_hopf,
    check_monotonicity,
    check_positivity,
    check_symmetry,
    check_weak_mp,
    stability_margin,
)

__version__ = "0.1.0"

__all__ = [
    "AliasingError",
    "CheckReport",
    "ConfigError",
    "DiscreteDomain",
    "DomainError",
    "DomainMismatchError",
    "EigenBasis",
    "GridFn",
    "SolveConfig",
    "SolveReport",
    "SpectralFn",
    "TruncationError",
    "UndefinedQuotientError",
    "analyze",
    "apply_A_half",
    "apply_B_half",
    "apply_inv_laplacian",
    "best_trace_constant",
    "boundary_distance",
    "check_hopf",
    "check_monotonicity",
    "check_positivity",
    "check_symmetry",
    "check_weak_mp",
    "critical_exponent",
    "dirichlet_energy",
    "dtn_fd",
    "eigenpairs",
    "evaluate_extension",
    "extremal_quotient",
    "hardy_quotient",
    "inner_product",
    "make_interval",
    "make_rectangle",
    "solve",
    "stability_margin",
    "sweep",
    "synthesize",
    "__version__",
]
