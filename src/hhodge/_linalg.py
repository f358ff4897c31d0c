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


def _copy_matrix(matrix: Sequence[Sequence]) -> list[list[Fraction]]:
    rows = [[Fraction(v) for v in row] for row in matrix]
    size = len(rows)
    if size == 0 or any(len(row) != size for row in rows):
        raise ValueError("matrix must be square and nonempty")
    return rows


def solve_exact(matrix: Sequence[Sequence], rhs: Sequence) -> list[Fraction]:
    """Solve matrix * x = rhs exactly; the returned residual is identically zero."""
    rows = _copy_matrix(matrix)
    size = len(rows)
    vec = [Fraction(v) for v in rhs]
    if len(vec) != size:
        raise ValueError(f"rhs has length {len(vec)}, expected {size}")

    for col in range(size):
        pivot_row = max(range(col, size), key=lambda r: abs(rows[r][col]))
        if rows[pivot_row][col] == 0:
            raise SingularMatrixError("coefficient matrix is singular")
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            vec[col], vec[pivot_row] = vec[pivot_row], vec[col]
        pivot = rows[col][col]
        for r in range(col + 1, size):
            factor = rows[r][col] / pivot
            if factor == 0:
                continue
            for c in range(col, size):
                rows[r][c] -= factor * rows[col][c]
            vec[r] -= factor * vec[col]

    solution = [Fraction(0)] * size
    for col in range(size - 1, -1, -1):
        acc = vec[col]
        for c in range(col + 1, size):
            acc -= rows[col][c] * solution[c]
        solution[col] = acc / rows[col][col]
    return solution


def det_exact(matrix: Sequence[Sequence]) -> Fraction:
    """Determinant by elimination; returns 0 (not an error) for singular input."""
    rows = _copy_matrix(matrix)
    size = len(rows)
    sign = 1
    det = Fraction(1)
    for col in range(size):
        pivot_row = max(range(col, size), key=lambda r: abs(rows[r][col]))
        if rows[pivot_row][col] == 0:
            return Fraction(0)
        if pivot_row != col:
            rows[col], rows[pivot_row] = rows[pivot_row], rows[col]
            sign = -sign
        pivot = rows[col][col]
        det *= pivot
        for r in range(col + 1, size):
            factor = rows[r][col] / pivot
            if factor == 0:
                continue
            for c in range(col, size):
                rows[r][c] -= factor * rows[col][c]
    return det * sign
