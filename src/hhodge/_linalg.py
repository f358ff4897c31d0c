"""Exact dense linear algebra over rationals.

Gaussian elimination with partial pivoting on the largest-magnitude entry;
pivot choice only affects intermediate sizes, never the exact result.  The
theories solve their own systems in closed form; this generic route backs
line_theory.solve_coefficients and is the tests' independent check of them.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from .errors import SingularMatrixError

__all__ = ["solve_exact", "det_exact"]


def _eliminate(matrix: Sequence[Sequence], rhs: Sequence | None = None):
    """Forward elimination on copies of matrix and rhs (zeros if None).

    Returns the upper-triangular rows, the transformed rhs and the sign of
    the row permutation; a zero pivot column raises SingularMatrixError.
    """
    rows = [[Fraction(v) for v in row] for row in matrix]
    size = len(rows)
    if size == 0 or any(len(row) != size for row in rows):
        raise ValueError("matrix must be square and nonempty")
    vec = [Fraction(0)] * size if rhs is None else [Fraction(v) for v in rhs]
    if len(vec) != size:
        raise ValueError(f"rhs has length {len(vec)}, expected {size}")
    sign = 1
    for col in range(size):
        pivot_row = max(range(col, size), key=lambda r: abs(rows[r][col]))
        if rows[pivot_row][col] == 0:
            raise SingularMatrixError("coefficient matrix is singular")
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            vec[col], vec[pivot_row] = vec[pivot_row], vec[col]
            sign = -sign
        pivot = rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col] / pivot
            if factor == 0:
                continue
            for c in range(col, size):
                rows[r][c] -= factor * rows[col][c]
            vec[r] -= factor * vec[col]
    return rows, vec, sign


def solve_exact(matrix: Sequence[Sequence], rhs: Sequence) -> list[Fraction]:
    """Solve matrix * x = rhs exactly; the returned residual is identically zero."""
    rows, vec, _ = _eliminate(matrix, rhs)
    size = len(rows)
    solution = [Fraction(0)] * size
    for col in range(size - 1, -1, -1):
        acc = vec[col]
        for c in range(col + 1, size):
            acc -= rows[col][c] * solution[c]
        solution[col] = acc / rows[col][col]
    return solution


def det_exact(matrix: Sequence[Sequence]) -> Fraction:
    """Determinant by elimination; returns 0 (not an error) for singular input."""
    try:
        rows, _, sign = _eliminate(matrix)
    except SingularMatrixError:
        return Fraction(0)
    det = Fraction(sign)
    for i, row in enumerate(rows):
        det *= row[i]
    return det
