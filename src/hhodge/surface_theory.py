"""Descendant integrals for the weighted projective plane with one stacky point.

The stacky integrals run on the shared engine (theory.py) with scale s = 2,
that is on half-shifted exponents: plain insertions carry weight l - 1/2 and
stacky insertions k + 2i/N - 1/2.  The coefficient matrix is offered in two
variants: "consistent" (entries 2i/N - 1/2, the default, whose scaled rows
reproduce theta_surface at the defining exponents) and "verbatim" (entries
2i/N, kept for audit; its seed reproduction fails).  The surface's own pieces
are the insertion-only closed form and the "printed" weight family.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .exact_arith import Rational, double_factorial
from .moduli import IntegralSpec, StackyType, nonnegative_ints
from .theory import MATRIX_MODES, Theory

__all__ = [
    "MATRIX_MODES",
    "surface_weight",
    "seed_exponent_surface",
    "theta_surface",
    "build_matrix_surface",
    "scale_matrix_surface",
    "matrix_det_surface",
    "nonstacky_integral_surface",
    "stacky_integral_surface",
    "reproduction_residual_surface",
    "recursion_residual_surface",
    "nonstacky_recursion_residual_surface",
    "nonstacky_complete_residual_surface",
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


def surface_weight(x: StackyType, i: int) -> Fraction:
    """Block weight 2i/N - 1/2; zero exactly at i = N/4, which the row scaling refuses."""
    if not 1 <= i <= x.N - 1:
        raise ValueError(f"block index {i} out of range for N={x.N}")
    return SURFACE.block_weight(x.N, i)


def seed_exponent_surface(g: int, x: StackyType) -> int:
    """The defining exponent a = g - 1 + total - (2/N) sum(i n_i); integer if admissible."""
    return SURFACE.seed_exponent(g, x)


def theta_surface(g: int, x: StackyType, k: Sequence[int], l: Sequence[int]) -> tuple[Fraction, ...]:
    """Entry r is P(n) u_r / (prod (l_j - 1/2)! prod u_j!) with u_j = k_j - 1/2 + 2 b_j/N
    and P(n) one half-step of the dimension per plain insertion."""
    return SURFACE.theta(g, x, k, l)


def build_matrix_surface(x: StackyType, a: Rational, mode: str = "consistent") -> list[list[Fraction]]:
    """2b_t/N - 1/2 (consistent) or 2b_t/N (verbatim) in column-block t, plus a on the diagonal."""
    return SURFACE.build_matrix(x, a, mode)


def scale_matrix_surface(
    matrix: Sequence[Sequence], g: int, x: StackyType, a: int
) -> list[list[Fraction]]:
    """Rescale row j (weight w) by (g + (total-3)/2)! w! / ((a + w)! prod_i (w_i!)^n_i);
    a block of weight zero raises DegenerateWeightError."""
    return SURFACE.scale_matrix(matrix, g, x, a)


def matrix_det_surface(x: StackyType, a: Rational, mode: str = "consistent") -> Fraction:
    """Determinant of build_matrix_surface, a^(total-1) (a + sum of its column entries)."""
    return SURFACE.det(x, a, mode)


def stacky_integral_surface(
    g: int, x: StackyType, spec: IntegralSpec, gamma, mode: str = "consistent"
) -> Fraction:
    """0 off the dimension gate, else the solved coefficients dotted with theta_surface."""
    return SURFACE.integral(g, x, spec, gamma, mode)


def reproduction_residual_surface(
    g: int, x: StackyType, j: int, gamma, mode: str = "consistent"
) -> Fraction:
    """stacky_integral_surface at a*e_j minus gamma_j: zero in consistent mode,
    generically nonzero in verbatim mode (the audit witness)."""
    return SURFACE.reproduction_residual(g, x, j, gamma, mode)


def recursion_residual_surface(
    g: int, x: StackyType, spec: IntegralSpec, vk: int, gamma, mode: str = "consistent"
) -> Fraction:
    """Residual of the surface recursion with weights w(v) = prod(v + m)/prod(1/2 + m)
    at v = l_i - 1/2 and k_j + 2b_j/N - 1/2; exactly zero, in either mode."""
    return SURFACE.recursion_residual(g, x, spec, vk, gamma, mode)


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


def nonstacky_complete_residual_surface(g: int, l: Sequence[int], vk: int, initial: Rational, m: int = 0) -> Fraction:
    """The bracket recursion on nonstacky_integral_surface(g, l, initial, m)
    with the point-class term, weight (m+1/2)_{vk+1}/(1/2)_{vk+1}.  Nonzero on
    dimension-coherent inputs, because the closed form's coefficient is the
    n-point (2g+n-3)!; with the (n+1)-point (2g+n-2)! it vanishes."""
    return SURFACE.nonstacky_complete_residual(g, l, vk, initial, m)
