"""Exact-arithmetic calculator and verifier for degree-zero cyclic twisted
descendant integrals on weighted projective lines and planes.

Everything computes over exact rationals: closed forms, the linear systems
fixing their coefficients, generating-series extraction of initial values,
and recursion residuals that are identically zero when the formulas hold.
The names below are the package's front door; everything else is imported
from its submodule.
"""

from .errors import (
    DegenerateWeightError,
    HurwitzHodgeError,
    InadmissibleTypeError,
    MissingGammaError,
    SingularMatrixError,
)
from .line_theory import (
    build_matrix_line,
    matrix_det_line,
    recursion_residual_line,
    reproduction_residual_line,
    scale_matrix_line,
    seed_exponent_line,
    stacky_integral_line,
)
from .moduli import GammaTable, IntegralSpec, StackyType
from .series import extract_line_initial, hodge_onepoint, hurwitz_hodge_onepoint, initial_onepoint
from .surface_theory import (
    MATRIX_MODES,
    build_matrix_surface,
    reproduction_residual_surface,
    scale_matrix_surface,
    seed_exponent_surface,
    theta_surface,
)

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "MATRIX_MODES",
    "StackyType",
    "IntegralSpec",
    "GammaTable",
    "HurwitzHodgeError",
    "InadmissibleTypeError",
    "MissingGammaError",
    "DegenerateWeightError",
    "SingularMatrixError",
    "hodge_onepoint",
    "hurwitz_hodge_onepoint",
    "initial_onepoint",
    "extract_line_initial",
    "seed_exponent_line",
    "build_matrix_line",
    "scale_matrix_line",
    "matrix_det_line",
    "stacky_integral_line",
    "reproduction_residual_line",
    "recursion_residual_line",
    "seed_exponent_surface",
    "theta_surface",
    "build_matrix_surface",
    "scale_matrix_surface",
    "reproduction_residual_surface",
]
