"""One-point generating series: truncated power series in t whose
coefficients are polynomials in z.

The coefficient of t^(2g) z^l is the genus-g one-point integral pairing the
descendant class with the l-th Chern class of the relevant bundle.  Every
table is sinc(t) = (t/2)/sin(t/2), the lambda_g series of Faber and
Pandharipande, times a z-th power of sinc or of sinc_N(t) = sinc(Nt):

    hodge     sinc * sinc^z
    hurwitz   (1/N) * sinc * sinc_N^z
    initial   (1/N) * sinc * (sinc_N^z - sinc^z)

In u = t^2, with sigma_d = [u^d] sinc, L = log sinc and E = exp(zL) = sinc^z,
sinc_N^z is E(N^2 u).  So row u^d of a table is the single sum
sum_e sigma_(d-e) * (N^(2e) - delta)/N * E_e, where hodge has N = 1 and
delta = 0, hurwitz delta = 0 and initial delta = 1.  Odd powers of t vanish.
All arithmetic is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable

from .exact_arith import Rational
from .moduli import is_int

__all__ = [
    "DEFAULT_ORDER",
    "ZPoly",
    "ZPolySeries",
    "hodge_onepoint",
    "hurwitz_hodge_onepoint",
    "initial_onepoint",
    "extract_line_initial",
]

DEFAULT_ORDER = 24


class ZPoly:
    """Immutable polynomial in z with exact rational coefficients."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rational] = ()):
        cs = [Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    def is_zero(self) -> bool:
        return not self.coeffs

    def degree(self) -> int:
        """Degree in z; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def coeff(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def scale(self, c: Rational) -> "ZPoly":
        return ZPoly(v * c for v in self.coeffs)

    def __sub__(self, other: "ZPoly") -> "ZPoly":
        size = max(len(self.coeffs), len(other.coeffs))
        return ZPoly(self.coeff(i) - other.coeff(i) for i in range(size))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, ZPoly) and self.coeffs == other.coeffs

    def __repr__(self) -> str:
        return f"ZPoly({list(self.coeffs)!r})"


class ZPolySeries:
    """Series in t truncated at t^order: one ZPoly per power t^0..t^order."""

    __slots__ = ("order", "coeffs")

    def __init__(self, order: int, coeffs: Iterable[ZPoly]):
        self.order = order
        self.coeffs: tuple[ZPoly, ...] = tuple(coeffs)

    def coeff(self, t_deg: int, z_deg: int | None = None):
        """The ZPoly at t^t_deg, or one rational entry of it."""
        if not 0 <= t_deg <= self.order:
            raise ValueError(f"t-degree {t_deg} outside truncation order {self.order}")
        poly = self.coeffs[t_deg]
        if z_deg is None:
            return poly
        return poly.coeff(z_deg)

    def scale(self, c: Rational) -> "ZPolySeries":
        return ZPolySeries(self.order, (p.scale(c) for p in self.coeffs))

    def __sub__(self, other: "ZPolySeries") -> "ZPolySeries":
        if self.order != other.order:
            raise ValueError(f"order mismatch: {self.order} != {other.order}")
        return ZPolySeries(self.order, (a - b for a, b in zip(self.coeffs, other.coeffs)))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, ZPolySeries)
            and self.order == other.order
            and self.coeffs == other.coeffs
        )


def _positive(name: str, value) -> None:
    if not is_int(value) or value < 1:
        raise ValueError(f"{name} must be a positive integer, got {value!r}")


def _sinc_log(D: int) -> tuple[list[Fraction], list[Fraction]]:
    """sigma_0..sigma_D of sinc and k*L_k for k = 0..D, in u = t^2."""
    # sinc inverts sin(t/2)/(t/2) = sum_i (-1)^i u^i / (4^i (2i+1)!)
    inv = [Fraction((-1) ** i, 4 ** i * math.factorial(2 * i + 1)) for i in range(D + 1)]
    sigma = [Fraction(1)]
    for d in range(1, D + 1):
        sigma.append(-sum((inv[i] * sigma[d - i] for i in range(1, d + 1)), Fraction(0)))
    # u sinc' = sinc * u L' gives d sigma_d = sum_k k L_k sigma_(d-k)
    kL = [Fraction(0)]
    for d in range(1, D + 1):
        kL.append(d * sigma[d] - sum((kL[k] * sigma[d - k] for k in range(1, d)), Fraction(0)))
    return sigma, kL


def _table(N: int, order: int, delta: int) -> ZPolySeries:
    """sum_e sigma_(d-e) (N^(2e) - delta)/N E_e at every row u^d up to t^order."""
    if not is_int(order) or order < 0:
        raise ValueError(f"order must be a nonnegative integer, got {order!r}")
    D = order // 2
    sigma, kL = _sinc_log(D)
    # E = exp(zL) from d E_d = z sum_k k L_k E_(d-k); E_d has z-degree d
    E = [[Fraction(1)]]
    for d in range(1, D + 1):
        row = [Fraction(0)] * (d + 1)
        for k in range(1, d + 1):
            for j, c in enumerate(E[d - k]):
                row[j + 1] += kL[k] * c
        E.append([c / d for c in row])
    weight = [Fraction(N ** (2 * e) - delta, N) for e in range(D + 1)]
    rows = []
    for d in range(D + 1):
        row = [Fraction(0)] * (d + 1)
        for e in range(d + 1):
            w = sigma[d - e] * weight[e]
            for j, c in enumerate(E[e]):
                row[j] += w * c
        rows.append(ZPoly(row))
    return ZPolySeries(order, (ZPoly() if t % 2 else rows[t // 2] for t in range(order + 1)))


def hodge_onepoint(order: int = DEFAULT_ORDER) -> ZPolySeries:
    """One-point descendant/Chern-class generating series on curves,
    sinc^(1+z).

    Coefficient of t^(2g) z^l is the genus-g one-point integral against the
    (g-l)-th Chern class; the z-degree at t^(2g) is exactly g.
    """
    return _table(1, order, 0)


def hurwitz_hodge_onepoint(N: int, order: int = DEFAULT_ORDER) -> ZPolySeries:
    """One-point generating series for the order-N cyclic twisted theory,
    (1/N) sinc sinc_N^z.

    Constant term 1/N; collapses to hodge_onepoint at N = 1.
    """
    _positive("N", N)
    return _table(N, order, 0)


def initial_onepoint(N: int, order: int = DEFAULT_ORDER) -> ZPolySeries:
    """Generating series of one-point initial values for the line theory,
    (1/N) sinc (sinc_N^z - sinc^z).

    Its z^0 row vanishes identically and it is the zero series at N = 1.
    """
    _positive("N", N)
    return _table(N, order, 1)


def extract_line_initial(N: int, g: int) -> Fraction:
    """Coefficient of t^(2g) z^1 in initial_onepoint(N): the genus-g one-point
    initial value seeding the line-theory closed forms.

    The z^1 coefficient of E_e is L_e, so this is
    sum_e sigma_(g-e) (N^(2e) - 1)/N L_e.
    """
    _positive("N", N)
    _positive("g", g)
    sigma, kL = _sinc_log(g)
    return sum(
        (sigma[g - e] * Fraction(N ** (2 * e) - 1, N * e) * kL[e] for e in range(1, g + 1)),
        Fraction(0),
    )
