"""Exact factorial-type products and rational (de)serialization.

Every function returns exact values.  The two kernels for rational arguments
p/q (q >= 1) return integer pairs (numerator, denominator), so that a caller
multiplies many of them on integers and builds one Fraction at the end.  The
factorial variants share one convention: an empty product is 1.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Union

__all__ = [
    "Rational",
    "frac_factorial_ints",
    "shifted_factorial_ints",
    "double_factorial",
    "multinomial",
    "rational_to_str",
    "rational_from_str",
]

Rational = Union[int, Fraction]


def frac_factorial_ints(p: int, q: int) -> tuple[int, int]:
    """(p/q)! as an integer pair (num, den): the descending product
    p(p - q)(p - 2q)... over its positive terms, and q to their count.

    p in (-q, 0] gives the empty product (1, 1).  p <= -q is rejected: the
    descent would never terminate on the negative side.
    """
    if p <= -q:
        raise ValueError(f"frac_factorial needs p/q > -1, got {p}/{q}")
    if q == 1:
        return math.factorial(p), 1
    num, den = 1, 1
    while p > 0:
        num *= p
        den *= q
        p -= q
    return num, den


def shifted_factorial_ints(p: int, q: int, k: int) -> tuple[int, int]:
    """The ascending product (p/q)(p/q + 1)...(p/q + k) over k + 1 terms as
    an integer pair (num, den): prod_m (p + m q) over q^(k+1).

    k = -1 gives the empty product (1, 1); k < -1 is rejected.
    """
    if k < -1:
        raise ValueError(f"shifted_factorial needs k >= -1, got {k}")
    num = 1
    for m in range(k + 1):
        num *= p + m * q
    return num, q ** (k + 1)


def double_factorial(m: int) -> int:
    """Product m(m-2)(m-4)...1 for odd m >= 1, with (-1)!! = 1."""
    if m < -1 or m % 2 == 0:
        raise ValueError(f"double_factorial needs odd m >= -1, got {m}")
    acc = 1
    while m > 1:
        acc *= m
        m -= 2
    return acc


def multinomial(top: int, parts) -> int:
    """top! / (parts_1! * ... * parts_r!) for nonnegative parts summing to top."""
    parts = tuple(parts)
    if top < 0 or any(p < 0 for p in parts):
        raise ValueError("multinomial needs nonnegative arguments")
    if sum(parts) != top:
        raise ValueError(f"parts sum to {sum(parts)}, expected {top}")
    acc = math.factorial(top)
    for p in parts:
        acc //= math.factorial(p)
    return acc


_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/[1-9]\d*)?$")


def rational_to_str(x: Rational) -> str:
    """Serialize a rational as "p" for integers, "p/q" otherwise (q > 0, reduced)."""
    xf = Fraction(x)
    if xf.denominator == 1:
        return str(xf.numerator)
    return f"{xf.numerator}/{xf.denominator}"


def rational_from_str(s: str) -> Fraction:
    """Parse "p" or "p/q" with q a positive integer literal."""
    if not isinstance(s, str) or not _RATIONAL_RE.match(s):
        raise ValueError(f"not a rational literal: {s!r}")
    return Fraction(s)
