"""The engine's kernels written over Fractions, one factor at a time: the
second route that the integer kernels of hhodge.exact_arith and
hhodge.theory are checked against.

frac_factorial and shifted_factorial are the descending and ascending
products on rationals; theta, row_scale and weight are the engine's theta,
row scaling and recursion weight built from them, and dim_gate the
dimension gate on Fractions; termwise_residual is the recursion as a sum of
public integral calls, one per term.
"""

from __future__ import annotations

import math
from fractions import Fraction

from hhodge.errors import DegenerateWeightError
from hhodge.moduli import IntegralSpec, _check_spec, nonnegative_ints, resolve_gamma
from hhodge.theory import _check_index, _check_mode


def shifted_factorial(x, k: int) -> Fraction:
    """Ascending product (x)(x+1)...(x+k) over k+1 terms.

    k = -1 gives the empty product 1; k < -1 is rejected.
    """
    if k < -1:
        raise ValueError(f"shifted_factorial needs k >= -1, got {k}")
    xf = Fraction(x)
    acc = Fraction(1)
    for m in range(k + 1):
        acc *= xf + m
    return acc


def frac_factorial(x) -> Fraction:
    """Descending product x(x-1)(x-2)... down to the representative of x mod 1 in (0, 1].

    Values in (-1, 0] give the empty product 1.  Arguments <= -1 are rejected:
    the descent would never terminate on the negative side.
    """
    xf = Fraction(x)
    if xf <= -1:
        raise ValueError(f"frac_factorial needs x > -1, got {xf}")
    acc = Fraction(1)
    while xf > 0:
        acc *= xf
        xf -= 1
    return acc


def _factorial(x):
    x = Fraction(x)
    return math.factorial(x.numerator) if x.denominator == 1 else frac_factorial(x)


def numerator(th, g: int, n_plain: int, M: int):
    """d_0! d_1 ... d_n with d_m = (2g - 3 + m + M)/s; d_n! when s = 1."""
    if th.s == 1:
        return _factorial(2 * g - 3 + n_plain + M)
    value = _factorial(Fraction(2 * g - 3 + M, th.s))
    for m in range(1, n_plain + 1):
        value *= Fraction(2 * g - 3 + m + M, th.s)
    return value


def theta(th, g: int, x, k, l) -> tuple[Fraction, ...]:
    """Entry r is numerator(n) * u_r / (prod (l_j - h)! * prod u_j!)."""
    k = nonnegative_ints(k, "stacky exponents")
    l = nonnegative_ints(l, "plain exponents")
    if len(k) != x.total:
        raise ValueError(f"need {x.total} stacky exponents, got {len(k)}")
    if x.total == 0:
        raise ValueError(f"{th.name} theta needs at least one stacky insertion")
    denom = Fraction(1)
    for lj in l:
        denom *= _factorial(lj - th.h)
    u = [kj + th.block_weight(x.N, b) for kj, b in zip(k, x.blocks())]
    for uj in u:
        denom *= _factorial(uj)
    base = numerator(th, g, len(l), x.total) / denom
    return tuple(base * uj for uj in u)


def row_scale(th, g: int, x, a: int) -> list[Fraction]:
    """numerator(0) w! / ((a + w)! prod_i (w_i!)^n_i) for the block weight w of each row."""
    weight_product = Fraction(1)
    per_block = {}
    for i, count in enumerate(x.n, start=1):
        if count == 0:
            continue
        w = th.block_weight(x.N, i)
        if w == 0:
            raise DegenerateWeightError(f"block i={i} of N={x.N} has weight 0")
        w_factorial = _factorial(w)
        weight_product *= w_factorial ** count
        per_block[i] = Fraction(w_factorial, _factorial(a + w))
    base = numerator(th, g, 0, x.total) / weight_product
    return [base * per_block[b] for b in x.blocks()]


def dim_gate(g: int, x, spec, s: int) -> bool:
    """sum(l_i - h) + sum(k_j + s i_j/N - h) = (2g - 2 + n + total)/s on Fractions."""
    _check_spec(g, x, spec)
    count = len(spec.l) + x.total
    lhs = sum(spec.l) + sum(spec.k) + Fraction(s * x.weighted_sum(), x.N) - count * (1 - Fraction(1, s))
    return lhs == Fraction(2 * g - 2 + count, s)


def weight(th, v, vk: int) -> Fraction:
    """The recursion weight (v)_{vk+1} / (1/s)_{vk+1}."""
    return shifted_factorial(v, vk) / shifted_factorial(Fraction(1, th.s), vk)


def termwise_residual(th, g: int, x, spec, vk: int, gamma, mode: str = "consistent") -> Fraction:
    """The recursion residual as the sum of public integral calls, one per
    term, each term's spec built from spec; raises what the first failing
    call raises."""
    _check_mode(mode)
    _check_index(vk)
    gamma_vec = resolve_gamma(gamma, th.name, g, x)
    l, k = spec.l, spec.k
    total = -th.integral(g, x, IntegralSpec(spec.g, l + (vk + 1,), k), gamma_vec, mode)
    terms = [(l[:i] + (li + vk,) + l[i + 1 :], k, li - th.h) for i, li in enumerate(l)]
    for j, (kj, b) in enumerate(zip(k, x.blocks())):
        terms.append((l, k[:j] + (kj + vk,) + k[j + 1 :], kj + th.block_weight(x.N, b)))
    for term_l, term_k, v in terms:
        w = weight(th, v, vk)
        if w:
            total += w * th.integral(g, x, IntegralSpec(spec.g, term_l, term_k), gamma_vec, mode)
    return total
