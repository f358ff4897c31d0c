"""Descendant integrals for the weighted projective line with one stacky point.

The stacky integrals run on the shared engine (theory.py) with scale s = 1:
plain weight l, stacky weight k + i/N, recursion weight
prod_{m=0..vk}(v + m)/(vk+1)!, which vanishes at plain exponent 0.  The line's
own piece is the closed form for integrals with no stacky insertions, a
multinomial times the genus-g one-point initial value.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from ._linalg import det_exact, solve_exact
from .exact_arith import Rational, multinomial
from .moduli import IntegralSpec, StackyType
from .theory import Theory, validated_exponents

__all__ = [
    "seed_exponent_line",
    "theta_line",
    "build_matrix_line",
    "scale_matrix_line",
    "matrix_det_line",
    "solve_coefficients",
    "nonstacky_integral_line",
    "stacky_integral_line",
    "reproduction_residual_line",
    "recursion_residual_line",
    "nonstacky_recursion_residual_line",
]


def nonstacky_integral_line(g: int, l: Sequence[int], initial: Rational) -> Fraction:
    """Closed form with no stacky insertions: multinomial(2g+n-2; l) times the
    genus-g one-point initial value, or 0 when the dimension gate fails."""
    l = validated_exponents(l, "plain")
    if not isinstance(g, int) or g < 1:
        raise ValueError(f"g must be a positive integer, got {g!r}")
    if len(l) < 1:
        raise ValueError("need at least one insertion")
    if sum(l) != 2 * g - 2 + len(l):
        return Fraction(0)
    return multinomial(2 * g + len(l) - 2, l) * Fraction(initial)


LINE = Theory("line", 1, nonstacky_integral_line)


def seed_exponent_line(g: int, x: StackyType) -> int:
    """The defining exponent a = 2g - 2 + total - sum(i n_i)/N; integer iff admissible."""
    return LINE.seed_exponent(g, x)


def theta_line(g: int, x: StackyType, k: Sequence[int], l: Sequence[int]) -> tuple[Fraction, ...]:
    """Entry r is (2g-3+n+total)! (k_r + b_r/N) / (prod l_j! prod (k_j + b_j/N)!)."""
    return LINE.theta(g, x, k, l)


def build_matrix_line(x: StackyType, a: Rational) -> list[list[Fraction]]:
    """b_t/N in column-block t plus a on the diagonal; det a^(total-1) (a + sum(i n_i)/N)."""
    return LINE.build_matrix(x, a)


def scale_matrix_line(
    matrix: Sequence[Sequence], g: int, x: StackyType, a: int
) -> list[list[Fraction]]:
    """Rescale row j (block i) by (i/N) (2g-3+total)! / ((a + i/N)! prod (i/N)^n_i)."""
    return LINE.scale_matrix(matrix, g, x, a)


def matrix_det_line(x: StackyType, a: Rational) -> Fraction:
    """Determinant of build_matrix_line via the elimination pipeline."""
    return det_exact(build_matrix_line(x, a))


def solve_coefficients(matrix: Sequence[Sequence], gamma: Sequence[Rational]) -> tuple[Fraction, ...]:
    """Exact solution of the scaled system; SingularMatrixError if it has none."""
    return tuple(solve_exact(matrix, gamma))


def stacky_integral_line(g: int, x: StackyType, spec: IntegralSpec, gamma) -> Fraction:
    """0 off the dimension gate, else the solved coefficients dotted with theta_line."""
    return LINE.integral(g, x, spec, gamma)


def reproduction_residual_line(g: int, x: StackyType, j: int, gamma) -> Fraction:
    """stacky_integral_line at a*e_j minus gamma_j; identically zero."""
    return LINE.reproduction_residual(g, x, j, gamma)


def recursion_residual_line(g: int, x: StackyType, spec: IntegralSpec, vk: int, gamma) -> Fraction:
    """Residual of the line recursion with weights w(v) = prod_{m=0..vk}(v + m)/(vk+1)!
    at v = l_i and k_j + b_j/N; exactly zero for any admissible instance and gamma."""
    return LINE.recursion_residual(g, x, spec, vk, gamma)


def nonstacky_recursion_residual_line(g: int, l: Sequence[int], vk: int, initial: Rational) -> Fraction:
    """The recursion on the insertion-only closed form; on dimension-coherent
    inputs it is -(2g+n-2)!/(vk! prod l_i!) * initial, not zero."""
    return LINE.nonstacky_recursion_residual(g, l, vk, initial)
