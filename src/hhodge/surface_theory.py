"""Descendant integrals for the weighted projective plane with one stacky point.

The stacky integrals run on the shared engine (theory.py) with scale s = 2,
that is on half-shifted exponents: plain insertions carry weight l - 1/2 and
stacky insertions k + 2i/N - 1/2.  The coefficient matrix is offered in two
variants: "consistent" (entries 2i/N - 1/2, the default, whose scaled rows
reproduce SURFACE.theta at the defining exponents) and "verbatim" (entries
2i/N, kept for audit; its seed reproduction fails).  The surface's own pieces
are the insertion-only closed form and the "printed" weight family.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .exact_arith import Rational, double_factorial
from .moduli import IntegralSpec, StackyType, nonnegative_ints
from .theory import Theory

__all__ = [
    "SURFACE",
    "matrix_det_surface",
    "nonstacky_integral_surface",
    "stacky_integral_surface",
    "reproduction_residual_surface",
    "nonstacky_recursion_residual_surface",
]


def nonstacky_integral_surface(g: int, l: Sequence[int], initial: Rational, m: int = 0) -> Fraction:
    """Closed form with no stacky insertions, n plain insertions and a
    point-class insertion at psi^m (psi-free by default):

        (2g+n-3)! (2g-1)!! / ((2g-1)! (2m-1)!! prod (2 l_i - 1)!!) * initial

    when sum(l) + m = g + n - 1, else 0.  The gate counts n + 1 points, the
    coefficient (2g+n-3)! only n, so the one-point value is initial/(2g-1)."""
    l = nonnegative_ints(l, "plain exponents")
    (m,) = nonnegative_ints((m,), "point-class exponents")
    if not isinstance(g, int) or g < 1:
        raise ValueError(f"g must be a positive integer, got {g!r}")
    if len(l) < 1:
        raise ValueError("need at least one insertion")
    if sum(l) + m != g + len(l) - 1:
        return Fraction(0)
    value = Fraction(math.factorial(2 * g + len(l) - 3) * double_factorial(2 * g - 1))
    value /= math.factorial(2 * g - 1)
    for li in l + (m,):
        value /= double_factorial(2 * li - 1)
    return value * Fraction(initial)


SURFACE = Theory("surface", 2, nonstacky_integral_surface)


def matrix_det_surface(x: StackyType, a: Rational, mode: str = "consistent") -> Fraction:
    """Determinant of SURFACE.build_matrix, a^(total-1) (a + sum of its column entries)."""
    return SURFACE.det(x, a, mode)


def stacky_integral_surface(
    g: int, x: StackyType, spec: IntegralSpec, gamma, mode: str = "consistent"
) -> Fraction:
    """0 off the dimension gate, else the solved coefficients dotted with SURFACE.theta."""
    return SURFACE.integral(g, x, spec, gamma, mode)


def reproduction_residual_surface(
    g: int, x: StackyType, j: int, gamma, mode: str = "consistent"
) -> Fraction:
    """stacky_integral_surface at a*e_j minus gamma_j: zero in consistent mode,
    generically nonzero in verbatim mode (the audit witness)."""
    return SURFACE.reproduction_residual(g, x, j, gamma, mode)


def _printed_weight(li: int, vk: int) -> Fraction:
    return Fraction(
        double_factorial(2 * li + 2 * vk - 1),
        double_factorial(2 * vk + 1) * double_factorial(2 * li - 1),
    )


def nonstacky_recursion_residual_surface(
    g: int, l: Sequence[int], vk: int, initial: Rational, family: str = "bracket"
) -> Fraction:
    """Residual of the displayed insertion-only surface recursion, without
    the point-class insertion's term, under either weight family: "bracket"
    uses prod(l-1/2+m)/prod(1/2+m); "printed" uses the double-factorial ratio
    (2l+2vk-1)!!/((2vk+1)!!(2l-1)!!), one half-step lower.  Neither
    annihilates the closed form: on dimension-coherent inputs the bracket
    residual is -2 vk and the printed residual -(2g - 2) times the common
    term value.  On the line the deviation is exactly minus the point-class
    term; here it is not, because of the coefficient of
    nonstacky_integral_surface."""
    if family not in ("bracket", "printed"):
        raise ValueError(f"family must be 'bracket' or 'printed', got {family!r}")
    weight = _printed_weight if family == "printed" else None
    return SURFACE.nonstacky_recursion_residual(g, l, vk, initial, weight)
