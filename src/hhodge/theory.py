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

Every defining matrix has the form aI + 1w^T, with the column entry w_t of
each insertion's block, so it is solved in closed form (Sherman-Morrison):
the scaled system D(aI + 1w^T)c = gamma, D diagonal, has

    c = (y - (w.y)/(a + sum(w)) 1)/a,   y = D^-1 gamma,

and determinant a^(M-1) (a + sum(w)).  The per-type data (a, w, D,
a + sum(w)) and the solved c are held in two bounded LRU caches.

The kernels run on integers.  Every weight of a type shares one
denominator: a stacky weight is P/q with q = sN and P = kq + s^2 b - (s-1)N,
a plain weight p/s with p = sl - (s-1).  A factorial (p/q)! is the integer
product of p, p - q, ... over q to its length, so theta, the row scale and
the recursion weights are integer products.  The solved c is held as integer
numerators over one common denominator, and an integral is one Fraction
built from the integer sum c.theta.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Optional, Sequence

from .errors import DegenerateWeightError, InadmissibleTypeError, SingularMatrixError
from .exact_arith import Rational, frac_factorial_ints, shifted_factorial_ints
from .moduli import (
    IntegralSpec, StackyType, dim_gate, exact_gamma, is_admissible, nonnegative_ints, resolve_gamma,
)

__all__ = ["MATRIX_MODES", "Theory"]

MATRIX_MODES = ("consistent", "verbatim")

# Entries of the two LRU caches, sized from their hit counts on the benchmark
# (perfbench/).  The per-type data of (theory, N, g, multiplicities, mode):
# wide-types cycles through 43 types, which 128 entries hold, and on the random
# types of verify-sampled the hit ratio is 0.2 at 16 entries, 0.7 at 128 and
# 0.75 to 0.85 at 256.  The solved coefficients, which add gamma to that key:
# their hits are the integrals of one gamma that follow its solve, so one
# entry gets as many hits as 256 on both workloads.
TYPE_CACHE_SIZE = 128
COEFF_CACHE_SIZE = 1


def _check_mode(mode: str) -> None:
    if mode not in MATRIX_MODES:
        raise ValueError(f"matrix mode must be one of {MATRIX_MODES}, got {mode!r}")


def _check_index(vk: int) -> None:
    if not isinstance(vk, int) or vk < 1:
        raise ValueError(f"Virasoro index must be a positive integer, got {vk!r}")


@dataclass(frozen=True)
class Theory:
    """A theory's name (also its gamma-table key), its scale s, and its closed
    form nonstacky(g, l, initial, m) for integrals with no stacky insertions,
    whose last point carries the point class at psi^m."""

    name: str
    s: int
    nonstacky: Callable[..., Fraction]
    h: Fraction = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "h", 1 - Fraction(1, self.s))

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
        M, s, N = x.total, self.s, x.N
        # a = (2g - 2 + M)/s - s*sum(i n_i)/N + M h, times sN
        num = (2 * g - 2 + M) * N - s * s * x.weighted_sum() + M * (s - 1) * N
        a, rest = divmod(num, s * N)
        if rest:
            raise InadmissibleTypeError(
                f"seed exponent {Fraction(num, s * N)} is not an integer; "
                f"type N={x.N}, n={list(x.n)} is inadmissible"
            )
        return a

    def _plain_p(self, l: int) -> int:
        """Numerator p of the plain weight l - h = p/s."""
        return self.s * l - self.s + 1

    def _block_p(self, N: int, i: int) -> int:
        """Numerator of the block weight s*i/N - h over q = sN."""
        return self.s * self.s * i - (self.s - 1) * N

    def _stacky_ps(self, x: StackyType, k: Sequence[int]) -> list[int]:
        """Numerators P_j of the stacky weights k_j + s*b_j/N - h = P_j/q, q = sN."""
        q = self.s * x.N
        return [q * kj + self._block_p(x.N, b) for kj, b in zip(k, x.blocks())]

    def _numerator(self, g: int, n_plain: int, M: int) -> tuple[int, int]:
        # with unit steps (s = 1) the product telescopes to d_n!, which stays
        # defined at g = 0 where d_0 = -1; half steps must be multiplied out,
        # since a factorial of d_n would step by whole integers
        e = 2 * g - 3 + M
        if self.s == 1:
            return math.factorial(e + n_plain), 1
        num, den = frac_factorial_ints(e, self.s)
        for m in range(1, n_plain + 1):
            num *= e + m
        return num, den * self.s ** n_plain

    def _theta_ints(self, g: int, N: int, plain: Sequence[int], stacky: Sequence[int]) -> tuple[int, int]:
        """theta on integers: entry r is num * stacky[r] / den, for plain
        weights p/s and stacky weights P/q."""
        q = self.s * N
        num, den = self._numerator(g, len(plain), len(stacky))
        den *= q
        for p in plain:
            f_num, f_den = frac_factorial_ints(p, self.s)
            num *= f_den
            den *= f_num
        for p in stacky:
            f_num, f_den = frac_factorial_ints(p, q)
            num *= f_den
            den *= f_num
        return num, den

    def theta(self, g: int, x: StackyType, k: Sequence[int], l: Sequence[int]) -> tuple[Fraction, ...]:
        """Entry r is numerator(n) * u_r / (prod (l_j - h)! * prod u_j!), with
        u_j = k_j + s*b_j/N - h the weight of stacky position j."""
        k = nonnegative_ints(k, "stacky exponents")
        l = nonnegative_ints(l, "plain exponents")
        if len(k) != x.total:
            raise ValueError(f"need {x.total} stacky exponents, got {len(k)}")
        if x.total == 0:
            raise ValueError(f"{self.name} theta needs at least one stacky insertion")
        stacky = self._stacky_ps(x, k)
        num, den = self._theta_ints(g, x.N, [self._plain_p(lj) for lj in l], stacky)
        return tuple(Fraction(num * p, den) for p in stacky)

    def column(self, x: StackyType, mode: str = "consistent") -> tuple[Fraction, ...]:
        """The defining matrix's column entry w_t of each insertion's block:
        s*i/N - h in consistent mode, s*i/N in verbatim mode."""
        _check_mode(mode)
        if x.total == 0:
            raise ValueError("matrix needs at least one stacky insertion")
        shift = self.h if mode == "consistent" else 0
        return tuple(Fraction(self.s * b, x.N) - shift for b in x.blocks())

    def build_matrix(self, x: StackyType, a: Rational, mode: str = "consistent") -> list[list[Fraction]]:
        """Square matrix aI + 1w^T: the column entry of block t everywhere and
        + a on the diagonal."""
        column = self.column(x, mode)
        a = Fraction(a)
        return [[entry + (a if r == t else 0) for t, entry in enumerate(column)] for r in range(x.total)]

    def det(self, x: StackyType, a: Rational, mode: str = "consistent") -> Fraction:
        """Determinant of build_matrix: a^(M-1) (a + sum(w)), the eigenvalue a
        on the M - 1 directions orthogonal to w and a + sum(w) on 1."""
        column = self.column(x, mode)
        a = Fraction(a)
        return a ** (len(column) - 1) * (a + sum(column))

    def row_scale(self, g: int, x: StackyType, a: int) -> list[Fraction]:
        """Factor of row j (block weight w): numerator(0) w! / ((a + w)! prod_i (w_i!)^n_i),
        computed once per block, so that with a the seed exponent, the scaled
        row j equals theta at the defining exponents a*e_j with no plain
        insertions.  Taking w! rather than the bare weight keeps this true for
        weights outside (0, 1].  A block of weight zero is refused as
        degenerate.  Every factor is a product of positive terms, never 0."""
        if not isinstance(a, int) or a < 0:
            raise ValueError(f"a must be a nonnegative integer, got {a!r}")
        q = self.s * x.N
        # w!^n_i over all blocks, and w!/(a + w)! per block, as integer pairs
        product_num, product_den = 1, 1
        per_block = {}
        for i, count in enumerate(x.n, start=1):
            if count == 0:
                continue
            p = self._block_p(x.N, i)
            if p == 0:
                raise DegenerateWeightError(
                    f"degenerate {self.name} weight: block i={i} of N={x.N} has {self.s}i/N - {self.h} = 0"
                )
            w_num, w_den = frac_factorial_ints(p, q)
            aw_num, aw_den = frac_factorial_ints(a * q + p, q)
            product_num *= w_num ** count
            product_den *= w_den ** count
            per_block[i] = (w_num * aw_den, w_den * aw_num)
        num, den = self._numerator(g, 0, x.total)
        num, den = num * product_den, den * product_num
        scale = {i: Fraction(num * b_num, den * b_den) for i, (b_num, b_den) in per_block.items()}
        return [scale[b] for b in x.blocks()]

    def scale_matrix(self, matrix: Sequence[Sequence], g: int, x: StackyType, a: int) -> list[list[Fraction]]:
        """Rescale row j of matrix by row_scale(g, x, a)[j]."""
        return [[d * Fraction(v) for v in row] for d, row in zip(self.row_scale(g, x, a), matrix)]

    def coefficients(
        self, g: int, x: StackyType, gamma_vec: tuple[Fraction, ...], mode: str
    ) -> tuple[Fraction, ...]:
        """The scaled system's solution for the seeds gamma_vec, in closed
        form; raises SingularMatrixError, naming the vanishing factor of the
        determinant, when the system does not determine it."""
        coeffs, common = _solve(self, g, x, gamma_vec, mode)
        return tuple(Fraction(c, common) for c in coeffs)

    def _check_integrand(self, g: int, x: StackyType, spec: IntegralSpec, mode: str) -> None:
        _check_mode(mode)
        if spec.g != g:
            raise ValueError(f"spec genus {spec.g} does not match g={g}")
        if not is_admissible(g, x):
            raise InadmissibleTypeError(f"type N={x.N}, n={list(x.n)} is inadmissible at g={g}")
        if x.total == 0:
            raise ValueError(f"type carries no stacky insertions; use nonstacky_integral_{self.name}")

    def _value(self, g: int, N: int, plain: Sequence[int], stacky: Sequence[int], coeffs) -> tuple[int, int]:
        """c.theta at the given weight numerators, as an integer pair, for c
        the integer numerators of the coefficients."""
        num, den = self._theta_ints(g, N, plain, stacky)
        return num * sum(c * p for c, p in zip(coeffs, stacky)), den

    def integral(self, g: int, x: StackyType, spec: IntegralSpec, gamma, mode: str = "consistent") -> Fraction:
        """0 when the dimension gate fails, otherwise the solved coefficient
        vector dotted with theta at the requested exponents."""
        self._check_integrand(g, x, spec, mode)
        if not dim_gate(g, x, spec, self.s):
            return Fraction(0)
        coeffs, common = _solve(self, g, x, resolve_gamma(gamma, self.name, g, x), mode)
        plain = [self._plain_p(lj) for lj in spec.l]
        num, den = self._value(g, x.N, plain, self._stacky_ps(x, spec.k), coeffs)
        return Fraction(num, den * common)

    def reproduction_residual(self, g: int, x: StackyType, j: int, gamma, mode: str = "consistent") -> Fraction:
        """The integral at the defining exponents a*e_j minus gamma_j."""
        gamma_vec = resolve_gamma(gamma, self.name, g, x)
        k = [0] * x.total
        k[j] = self.seed_exponent(g, x)
        return self.integral(g, x, IntegralSpec(g, (), tuple(k)), gamma_vec, mode) - gamma_vec[j]

    def _weight(self, p: int, q: int, vk: int) -> tuple[int, int]:
        """The recursion weight (v)_{vk+1} / (1/s)_{vk+1} at v = p/q, as an integer pair."""
        num, den = shifted_factorial_ints(p, q, vk)
        unit_num, unit_den = shifted_factorial_ints(1, self.s, vk)
        return num * unit_den, den * unit_num

    def _plain_weight(self, l: int, vk: int) -> Fraction:
        """The recursion weight of a plain insertion at psi^l, weight l - h."""
        return Fraction(*self._weight(self._plain_p(l), self.s, vk))

    def recursion_residual(
        self, g: int, x: StackyType, spec: IntegralSpec, vk: int, gamma, mode: str = "consistent"
    ) -> Fraction:
        """Residual of the recursion at Virasoro index vk >= 1: minus the
        integral with an added plain insertion vk + 1, plus each integral with
        one exponent raised by vk times the recursion weight of that
        insertion's weight.  Terms of weight zero (the line's l_i = 0) are
        skipped.  Each term is the integral at its own exponents, with its
        own theta; gamma is resolved and the coefficients looked up once for
        all of them, and the sum is one Fraction."""
        _check_mode(mode)
        _check_index(vk)
        gamma_vec = resolve_gamma(gamma, self.name, g, x)
        added = IntegralSpec(spec.g, spec.l + (vk + 1,), spec.k)
        self._check_integrand(g, x, added, mode)
        # a raised exponent moves the gate's left side by vk; the added
        # insertion at vk + 1 moves it by vk + 1 - h = vk + 1/s and the right
        # side by 1/s, so every term passes the gate exactly when this one does
        if not dim_gate(g, x, added, self.s):
            return Fraction(0)
        coeffs, common = _solve(self, g, x, gamma_vec, mode)
        s, q = self.s, self.s * x.N
        plain = [self._plain_p(li) for li in spec.l]
        stacky = self._stacky_ps(x, spec.k)
        # (weight numerator, weight denominator, plain numerators, stacky numerators)
        terms = [(-1, 1, plain + [self._plain_p(vk + 1)], stacky)]
        for i, p in enumerate(plain):
            terms.append((*self._weight(p, s, vk), plain[:i] + [p + vk * s] + plain[i + 1 :], stacky))
        for j, p in enumerate(stacky):
            terms.append((*self._weight(p, q, vk), plain, stacky[:j] + [p + vk * q] + stacky[j + 1 :]))
        num, den = 0, 1
        for w_num, w_den, term_plain, term_stacky in terms:
            if w_num:
                t_num, t_den = self._value(g, x.N, term_plain, term_stacky, coeffs)
                num, den = num * t_den * w_den + w_num * t_num * den, den * t_den * w_den
        return Fraction(num, den * common)

    def nonstacky_recursion_residual(
        self, g: int, l: Sequence[int], vk: int, initial: Rational,
        weight: Optional[Callable[[int, int], Fraction]] = None, m: int = 0,
    ) -> Fraction:
        """The displayed recursion applied to the insertion-only closed form
        (point-class insertion at psi^m), under the theory's weights or
        weight(l_i, vk) when given.  It raises the plain exponents only and
        leaves out the point-class insertion's term, so on the line it is
        exactly minus that term (see nonstacky_complete_residual)."""
        _check_index(vk)
        l = nonnegative_ints(l, "plain exponents")
        weight = weight or self._plain_weight
        total = -self.nonstacky(g, l + (vk + 1,), initial, m)
        for i, li in enumerate(l):
            w = weight(li, vk)
            if w:
                total += w * self.nonstacky(g, l[:i] + (li + vk,) + l[i + 1 :], initial, m)
        return total

    def nonstacky_complete_residual(self, g: int, l: Sequence[int], vk: int, initial: Rational, m: int = 0) -> Fraction:
        """The recursion on the insertion-only closed form with every
        insertion's term: the displayed residual plus the point-class
        insertion raised from psi^m to psi^(m+vk), at the recursion weight of
        m + 1 - h, one more than that of a plain insertion at psi^m."""
        total = self.nonstacky_recursion_residual(g, l, vk, initial, m=m)
        return total + self._plain_weight(m + 1, vk) * self.nonstacky(g, l, initial, m + vk)


@functools.lru_cache(maxsize=TYPE_CACHE_SIZE)
def _system(th: Theory, g: int, x: StackyType, mode: str) -> tuple:
    """Per-type data (a, w, D, a + sum(w)) of the scaled system D(aI + 1w^T)c = gamma."""
    a = th.seed_exponent(g, x)
    w = th.column(x, mode)
    d = tuple(th.row_scale(g, x, a))
    return a, w, d, a + sum(w)


@functools.lru_cache(maxsize=COEFF_CACHE_SIZE)
def _solve(th: Theory, g: int, x: StackyType, gamma: tuple, mode: str) -> tuple[tuple[int, ...], int]:
    """The coefficients c as integer numerators over their common denominator."""
    a, w, d, pivot = _system(th, g, x, mode)
    if len(gamma) != len(w):
        raise ValueError(f"gamma vector has length {len(gamma)}, expected {len(w)}")
    # det = a^(M-1) (a + sum(w)); name each factor that vanishes
    zero = [f"a = 0 with {len(w)} stacky insertions"] if a == 0 and len(w) > 1 else []
    if pivot == 0:
        zero.append("a + sum(w) = 0")
    if zero:
        raise SingularMatrixError("defining system is singular: " + " and ".join(zero))
    y = [v / dj for v, dj in zip(exact_gamma(gamma), d)]
    if len(y) == 1:
        # (a + w) c = y, with no division by a
        c = [y[0] / pivot]
    else:
        shift = sum(wj * yj for wj, yj in zip(w, y)) / pivot
        c = [(yj - shift) / a for yj in y]
    # integer numerators over one common denominator
    common = math.lcm(*(cj.denominator for cj in c))
    return tuple(cj.numerator * (common // cj.denominator) for cj in c), common
