"""Exact-arithmetic calculator and verifier for degree-zero cyclic twisted
descendant integrals on weighted projective lines and planes.

Everything computes over exact rationals: closed forms, the linear systems
fixing their coefficients, generating-series extraction of initial values,
and recursion residuals that are identically zero when the formulas hold.

The way in is the two theory records, LINE (the weighted projective line)
and SURFACE (the plane): LINE.theta, LINE.integral, SURFACE.build_matrix,
SURFACE.recursion_residual and the rest are one engine, the Theory class.
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
from .line_theory import LINE
from .moduli import GammaTable, IntegralSpec, StackyType
from .series import extract_line_initial, hodge_onepoint, hurwitz_hodge_onepoint, initial_onepoint
from .surface_theory import SURFACE
from .theory import MATRIX_MODES, Theory

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "LINE",
    "SURFACE",
    "Theory",
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
]
