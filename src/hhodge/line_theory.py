"""Descendant integrals for the weighted projective line with one stacky point.

The stacky integrals run on the shared engine (theory.py) with scale s = 1:
plain weight l, stacky weight k + i/N, recursion weight
prod_{m=0..vk}(v + m)/(vk+1)!, which vanishes at plain exponent 0.  The line's
own piece is the closed form for integrals with no stacky insertions, a
multinomial times the genus-g one-point initial value, whose extra point
carries the point class.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ._linalg import solve_exact
from .exact_arith import Rational, multinomial
from .moduli import IntegralSpec, StackyType, nonnegative_ints
from .theory import Theory

__all__ = [
    "LINE",
    "matrix_det_line",
    "solve_coefficients",
    "nonstacky_integral_line",
    "stacky_integral_line",
    "reproduction_residual_line",
    "nonstacky_recursion_residual_line",
]


def nonstacky_integral_line(g: int, l: Sequence[int], initial: Rational, m: int = 0) -> Fraction:
    """Closed form with no stacky insertions, a lambda_g formula on n + 1
    points: the n plain insertions and a point-class insertion at psi^m
    (psi-free by default).  multinomial(2g+n-2; l, m) times the genus-g
    one-point initial value, or 0 unless sum(l) + m = 2g - 2 + n."""
    l = nonnegative_ints(l, "plain exponents")
    (m,) = nonnegative_ints((m,), "point-class exponents")
    if not isinstance(g, int) or g < 1:
        raise ValueError(f"g must be a positive integer, got {g!r}")
    if len(l) < 1:
        raise ValueError("need at least one insertion")
    if sum(l) + m != 2 * g - 2 + len(l):
        return Fraction(0)
    return multinomial(2 * g + len(l) - 2, l + (m,)) * Fraction(initial)


LINE = Theory("line", 1, nonstacky_integral_line)


def matrix_det_line(x: StackyType, a: Rational) -> Fraction:
    """Determinant of LINE.build_matrix, a^(total-1) (a + sum(i n_i)/N)."""
    return LINE.det(x, a)


def solve_coefficients(matrix: Sequence[Sequence], gamma: Sequence[Rational]) -> tuple[Fraction, ...]:
    """Exact solution of any square system by elimination; SingularMatrixError
    if it has none.  The theories solve their own systems in closed form."""
    return tuple(solve_exact(matrix, gamma))


def stacky_integral_line(g: int, x: StackyType, spec: IntegralSpec, gamma) -> Fraction:
    """0 off the dimension gate, else the solved coefficients dotted with LINE.theta."""
    return LINE.integral(g, x, spec, gamma)


def reproduction_residual_line(g: int, x: StackyType, j: int, gamma) -> Fraction:
    """stacky_integral_line at a*e_j minus gamma_j; identically zero."""
    return LINE.reproduction_residual(g, x, j, gamma)


def nonstacky_recursion_residual_line(g: int, l: Sequence[int], vk: int, initial: Rational) -> Fraction:
    """The displayed recursion on the insertion-only closed form, without the
    point-class insertion's term; on dimension-coherent inputs it is
    -(2g+n-2)!/(vk! prod l_i!) * initial, exactly minus that term."""
    return LINE.nonstacky_recursion_residual(g, l, vk, initial)
