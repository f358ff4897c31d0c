"""One engine for the line and surface theories.

Both theories run the same construction: a product formula theta, an exact
linear system seeded with gamma that fixes its coefficients, and a
first-order recursion.  They differ only by a scale s (1 on the line, 2 on
the surface) and the half-shift h = 1 - 1/s it brings:

    plain weight       l - h
    stacky weight      k + s*i/N - h      (verbatim matrix column: s*i/N)
    dimension          (2g - 2 + n + total) / s
    theta numerator    d_0! * d_1 * ... * d_n,  d_m = (2g - 3 + m + total) / s
    recursion weight   (v)_{vk+1} / (1/s)_{vk+1}

Here (x)! is the descending fractional factorial and (v)_{vk+1} the
ascending product of vk + 1 terms.  A Theory record holds s and the theory's
insertion-only closed form; its methods are the pipeline, written once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from ._linalg import solve_exact
from .errors import DegenerateWeightError, InadmissibleTypeError
from .exact_arith import Rational, frac_factorial, shifted_factorial
from .moduli import IntegralSpec, StackyType, dim_gate, is_admissible, resolve_gamma

__all__ = ["MATRIX_MODES", "Theory", "validated_exponents"]

MATRIX_MODES = ("consistent", "verbatim")

# Solved coefficient vectors keyed by (theory, N, g, multiplicities, gamma,
# mode); entries are immutable, so concurrent writers can only race to the
# same value.
_COEFF_CACHE: dict[tuple, tuple[Fraction, ...]] = {}


def validated_exponents(values: Sequence[int], label: str) -> tuple[int, ...]:
    out = tuple(int(v) for v in values)
    if any(v < 0 for v in out):
        raise ValueError(f"{label} exponents must be nonnegative")
    return out


def _check_mode(mode: str) -> None:
    if mode not in MATRIX_MODES:
        raise ValueError(f"matrix mode must be one of {MATRIX_MODES}, got {mode!r}")


def _check_index(vk: int) -> None:
    if not isinstance(vk, int) or vk < 1:
        raise ValueError(f"Virasoro index must be a positive integer, got {vk!r}")


def _factorial(x: Rational) -> Rational:
    """frac_factorial, with integer arguments on the much faster math.factorial."""
    return math.factorial(x.numerator) if x.denominator == 1 else frac_factorial(x)


@dataclass(frozen=True)
class Theory:
    """A theory's name (also its gamma-table key), its scale s, and its closed
    form nonstacky(g, l, initial) for integrals with no stacky insertions."""

    name: str
    s: int
    nonstacky: Callable[[int, Sequence[int], Rational], Fraction]
    h: Rational = field(init=False)

    def __post_init__(self):
        h = 1 - Fraction(1, self.s)
        # an int on the line keeps its plain factorials on integers
        object.__setattr__(self, "h", h if h else 0)

    @property
    def has_modes(self) -> bool:
        """Whether the verbatim matrix column differs from the consistent one."""
        return self.h != 0

    def block_weight(self, N: int, i: int) -> Fraction:
        """Stacky weight s*i/N - h of block i."""
        return Fraction(self.s * i, N) - self.h

    def seed_exponent(self, g: int, x: StackyType) -> int:
        """The defining exponent a that puts one stacky insertion on the
        dimension gate with every other exponent 0."""
        M = x.total
        a = Fraction(2 * g - 2 + M, self.s) - Fraction(self.s * x.weighted_sum(), x.N) + M * self.h
        if a.denominator != 1:
            raise InadmissibleTypeError(
                f"seed exponent {a} is not an integer; type N={x.N}, n={list(x.n)} is inadmissible"
            )
        return int(a)

    def _numerator(self, g: int, n_plain: int, M: int) -> Rational:
        # with unit steps (s = 1) the product telescopes to d_n!, which stays
        # defined at g = 0 where d_0 = -1; half steps must be multiplied out,
        # since a factorial of d_n would step by whole integers
        if self.s == 1:
            return _factorial(2 * g - 3 + n_plain + M)
        value = _factorial(Fraction(2 * g - 3 + M, self.s))
        for m in range(1, n_plain + 1):
            value *= Fraction(2 * g - 3 + m + M, self.s)
        return value

    def theta(self, g: int, x: StackyType, k: Sequence[int], l: Sequence[int]) -> tuple[Fraction, ...]:
        """Entry r is numerator(n) * u_r / (prod (l_j - h)! * prod u_j!), with
        u_j = k_j + s*b_j/N - h the weight of stacky position j."""
        k = validated_exponents(k, "stacky")
        l = validated_exponents(l, "plain")
        if len(k) != x.total:
            raise ValueError(f"need {x.total} stacky exponents, got {len(k)}")
        if x.total == 0:
            raise ValueError(f"theta_{self.name} needs at least one stacky insertion")
        denom = Fraction(1)
        for lj in l:
            denom *= _factorial(lj - self.h)
        u = [kj + self.block_weight(x.N, b) for kj, b in zip(k, x.blocks())]
        for uj in u:
            denom *= _factorial(uj)
        base = self._numerator(g, len(l), x.total) / denom
        return tuple(base * uj for uj in u)

    def build_matrix(self, x: StackyType, a: Rational, mode: str = "consistent") -> list[list[Fraction]]:
        """Square matrix with the column entry of block t everywhere and + a on
        the diagonal: s*i/N - h in consistent mode, s*i/N in verbatim mode."""
        _check_mode(mode)
        if x.total == 0:
            raise ValueError("matrix needs at least one stacky insertion")
        a = Fraction(a)
        shift = self.h if mode == "consistent" else 0
        column = [Fraction(self.s * b, x.N) - shift for b in x.blocks()]
        return [[entry + (a if r == t else 0) for t, entry in enumerate(column)] for r in range(x.total)]

    def scale_matrix(self, matrix: Sequence[Sequence], g: int, x: StackyType, a: int) -> list[list[Fraction]]:
        """Rescale row j (block weight w) by numerator(0) w! / ((a + w)! prod_i (w_i!)^n_i),
        so that with a the seed exponent, row j equals theta at the defining
        exponents a*e_j with no plain insertions.  Taking w! rather than the
        bare weight keeps this true for weights outside (0, 1].  A block of
        weight zero is refused as degenerate."""
        if not isinstance(a, int) or a < 0:
            raise ValueError(f"a must be a nonnegative integer, got {a!r}")
        weight_product = Fraction(1)
        for i, count in enumerate(x.n, start=1):
            if count == 0:
                continue
            w = self.block_weight(x.N, i)
            if w == 0:
                raise DegenerateWeightError(
                    f"degenerate {self.name} weight: block i={i} of N={x.N} has {self.s}i/N - {self.h} = 0"
                )
            weight_product *= _factorial(w) ** count
        numerator = self._numerator(g, 0, x.total)
        scaled = []
        for row, b in zip(matrix, x.blocks()):
            w = self.block_weight(x.N, b)
            factor = numerator * _factorial(w) / (_factorial(a + w) * weight_product)
            scaled.append([factor * Fraction(v) for v in row])
        return scaled

    def coefficients(
        self, g: int, x: StackyType, gamma_vec: tuple[Fraction, ...], mode: str
    ) -> tuple[Fraction, ...]:
        """The scaled system's solution for the seeds gamma_vec, solved once per
        (theory, N, g, type, gamma, mode); raises SingularMatrixError when the
        system does not determine it."""
        key = (self.name, x.N, g, x.n, gamma_vec, mode)
        cached = _COEFF_CACHE.get(key)
        if cached is None:
            a = self.seed_exponent(g, x)
            scaled = self.scale_matrix(self.build_matrix(x, a, mode), g, x, a)
            cached = _COEFF_CACHE[key] = tuple(solve_exact(scaled, gamma_vec))
        return cached

    def integral(self, g: int, x: StackyType, spec: IntegralSpec, gamma, mode: str = "consistent") -> Fraction:
        """0 when the dimension gate fails, otherwise the solved coefficient
        vector dotted with theta at the requested exponents."""
        _check_mode(mode)
        if spec.g != g:
            raise ValueError(f"spec genus {spec.g} does not match g={g}")
        if not is_admissible(g, x):
            raise InadmissibleTypeError(f"type N={x.N}, n={list(x.n)} is inadmissible at g={g}")
        if x.total == 0:
            raise ValueError(f"type carries no stacky insertions; use nonstacky_integral_{self.name}")
        if not dim_gate(g, x, spec, self.s):
            return Fraction(0)
        gamma_vec = resolve_gamma(gamma, self.name, g, x)
        coeffs = self.coefficients(g, x, gamma_vec, mode)
        theta = self.theta(g, x, spec.k, spec.l)
        return sum((c * t for c, t in zip(coeffs, theta)), Fraction(0))

    def reproduction_residual(self, g: int, x: StackyType, j: int, gamma, mode: str = "consistent") -> Fraction:
        """The integral at the defining exponents a*e_j minus gamma_j."""
        gamma_vec = resolve_gamma(gamma, self.name, g, x)
        k = [0] * x.total
        k[j] = self.seed_exponent(g, x)
        return self.integral(g, x, IntegralSpec(g, (), tuple(k)), gamma_vec, mode) - gamma_vec[j]

    def _weight(self, v: Rational, vk: int) -> Fraction:
        return shifted_factorial(v, vk) / shifted_factorial(Fraction(1, self.s), vk)

    def recursion_residual(
        self, g: int, x: StackyType, spec: IntegralSpec, vk: int, gamma, mode: str = "consistent"
    ) -> Fraction:
        """Residual of the recursion at Virasoro index vk >= 1: minus the
        integral with an added plain insertion vk + 1, plus each integral with
        one exponent raised by vk times the recursion weight of that
        insertion's weight.  Terms of weight zero (the line's l_i = 0) are
        skipped."""
        _check_mode(mode)
        _check_index(vk)
        gamma_vec = resolve_gamma(gamma, self.name, g, x)
        l, k = spec.l, spec.k
        terms = [(l[:i] + (li + vk,) + l[i + 1 :], k, li - self.h) for i, li in enumerate(l)]
        for j, (kj, b) in enumerate(zip(k, x.blocks())):
            terms.append((l, k[:j] + (kj + vk,) + k[j + 1 :], kj + self.block_weight(x.N, b)))
        total = -self.integral(g, x, IntegralSpec(g, l + (vk + 1,), k), gamma_vec, mode)
        for term_l, term_k, v in terms:
            weight = self._weight(v, vk)
            if weight:
                total += weight * self.integral(g, x, IntegralSpec(g, term_l, term_k), gamma_vec, mode)
        return total

    def nonstacky_recursion_residual(
        self, g: int, l: Sequence[int], vk: int, initial: Rational,
        weight: Optional[Callable[[int, int], Fraction]] = None,
    ) -> Fraction:
        """The same recursion applied to the insertion-only closed form, under
        the theory's weights or weight(l_i, vk) when given."""
        _check_index(vk)
        l = validated_exponents(l, "plain")
        total = -self.nonstacky(g, l + (vk + 1,), initial)
        for i, li in enumerate(l):
            w = weight(li, vk) if weight else self._weight(li - self.h, vk)
            if w:
                total += w * self.nonstacky(g, l[:i] + (li + vk,) + l[i + 1 :], initial)
        return total
