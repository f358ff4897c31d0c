"""Stacky-type bookkeeping: multiplicity vectors, ranks, admissibility,
dimension gates, and the table of user-supplied initial values."""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence, Union

from .errors import MissingGammaError
from .exact_arith import Rational, rational_from_str

__all__ = [
    "StackyType",
    "IntegralSpec",
    "GammaTable",
    "rank_r1",
    "rank_rNm1",
    "is_admissible",
    "dim_gate",
    "exact_gamma",
    "resolve_gamma",
]


def is_int(value) -> bool:
    # true/false are bools, a subclass of int
    return isinstance(value, int) and not isinstance(value, bool)


def nonnegative_ints(values: Sequence[int], what: str) -> tuple[int, ...]:
    """values as a tuple of nonnegative ints.  A bool or a non-integer is
    refused rather than truncated, so 1.9 cannot pass for 1."""
    out = tuple(values)
    for v in out:
        if not is_int(v):
            raise ValueError(f"{what} must be integers, got {v!r}")
    if any(v < 0 for v in out):
        raise ValueError(f"{what} must be nonnegative")
    return out


@dataclass(frozen=True)
class StackyType:
    """Cyclic order N plus the multiplicity n_i of marked points carrying
    monodromy i, for i = 1..N-1."""

    N: int
    n: tuple[int, ...]

    def __post_init__(self):
        if not is_int(self.N) or self.N < 2:
            raise ValueError(f"N must be an integer >= 2, got {self.N!r}")
        n = nonnegative_ints(self.n, "multiplicities")
        if len(n) != self.N - 1:
            raise ValueError(f"need {self.N - 1} multiplicities for N={self.N}, got {len(n)}")
        object.__setattr__(self, "n", n)

    @property
    def total(self) -> int:
        """Number of stacky insertions."""
        return sum(self.n)

    def blocks(self) -> tuple[int, ...]:
        """Block index (1-based monodromy) of each insertion position."""
        out = []
        for i, count in enumerate(self.n, start=1):
            out.extend([i] * count)
        return tuple(out)

    def weighted_sum(self) -> int:
        """Sum of i * n_i; the type is admissible iff this is divisible by N."""
        return sum(i * v for i, v in enumerate(self.n, start=1))


@dataclass(frozen=True)
class IntegralSpec:
    """Genus plus the descendant exponents: l at plain points, k at stacky
    points (block-aligned with a StackyType)."""

    g: int
    l: tuple[int, ...]
    k: tuple[int, ...]

    def __post_init__(self):
        if not is_int(self.g) or self.g < 0:
            raise ValueError(f"genus must be a nonnegative integer, got {self.g!r}")
        object.__setattr__(self, "l", nonnegative_ints(self.l, "descendant exponents"))
        object.__setattr__(self, "k", nonnegative_ints(self.k, "descendant exponents"))


def _check_spec(g: int, x: StackyType, spec: IntegralSpec) -> None:
    if spec.g != g:
        raise ValueError(f"spec genus {spec.g} does not match g={g}")
    if len(spec.k) != x.total:
        raise ValueError(
            f"spec has {len(spec.k)} stacky exponents, type carries {x.total} insertions"
        )


def _check_genus(g: int) -> None:
    if not isinstance(g, int) or g < 0:
        raise ValueError(f"genus must be a nonnegative integer, got {g!r}")


def rank_r1(g: int, x: StackyType) -> Fraction:
    """Rank of the weight-1 eigenbundle: sum(n_i * i/N) + g - 1."""
    _check_genus(g)
    return Fraction(x.weighted_sum(), x.N) + g - 1


def rank_rNm1(g: int, x: StackyType) -> Fraction:
    """Rank of the complementary eigenbundle: sum(n_i * (N-i)/N) + g - 1."""
    _check_genus(g)
    weighted = sum((x.N - i) * v for i, v in enumerate(x.n, start=1))
    return Fraction(weighted, x.N) + g - 1


def is_admissible(g: int, x: StackyType) -> bool:
    """True iff rank_r1(g, x) is a nonnegative integer, i.e. the monodromies
    can balance and the eigenbundle exists."""
    _check_genus(g)
    whole, rest = divmod(x.weighted_sum(), x.N)
    return rest == 0 and whole + g - 1 >= 0


def dim_gate(g: int, x: StackyType, spec: IntegralSpec, s: int) -> bool:
    """Dimension gate of the theory with scale s (1 line, 2 surface) and
    half-shift h = 1 - 1/s: the integral can be nonzero only when
    sum(l_i - h) + sum(k_j + s i_j/N - h) = (2g - 2 + n + total)/s,
    compared on integers, both sides times sN."""
    _check_spec(g, x, spec)
    count = len(spec.l) + x.total
    lhs = s * x.N * (sum(spec.l) + sum(spec.k)) + s * s * x.weighted_sum() - count * (s - 1) * x.N
    return lhs == (2 * g - 2 + count) * x.N


_THEORIES = ("line", "surface")


def exact_gamma(values: Sequence[Rational]) -> tuple[Fraction, ...]:
    """values as Fractions.  A float is refused rather than taken at its
    binary value (0.1 would enter an exact table as
    3602879701896397/36028797018963968), and so is a bool."""
    out = []
    for v in values:
        if not isinstance(v, Fraction):
            if isinstance(v, bool):
                raise ValueError(f"gamma entries must not be booleans, got {v!r}")
            if isinstance(v, float):
                raise ValueError(f'gamma entries must be integers, Fractions or "p/q" strings, got {v!r}')
            v = Fraction(v)
        out.append(v)
    return tuple(out)


class GammaTable:
    """User-supplied initial values, keyed by (theory, N, g, multiplicities).

    Each value is the vector of seed integrals, one per stacky insertion
    position.  Re-adding an identical vector is a no-op; a conflicting vector
    for an existing key is rejected so exact results cannot be silently
    poisoned.
    """

    def __init__(self):
        self._table: dict[tuple, tuple[Fraction, ...]] = {}

    def add(self, theory: str, N: int, g: int, n: Sequence[int], gamma: Sequence[Rational]) -> None:
        if theory not in _THEORIES:
            raise ValueError(f"theory must be one of {_THEORIES}, got {theory!r}")
        if not is_int(g):
            raise ValueError(f"genus must be an integer, got {g!r}")
        x = StackyType(N, tuple(n))
        vec = exact_gamma(gamma)
        if len(vec) != x.total:
            raise ValueError(
                f"gamma vector has length {len(vec)}, type carries {x.total} insertions"
            )
        key = (theory, x.N, g, x.n)
        existing = self._table.get(key)
        if existing is not None and existing != vec:
            raise ValueError(f"conflicting gamma vectors for key {key}")
        self._table[key] = vec

    def add_dict(self, obj: dict) -> None:
        """Ingest one {"theory", "N", "g", "n", "gamma"} JSON object."""
        if not isinstance(obj, dict):
            raise ValueError(f"gamma record must be a JSON object, got {type(obj).__name__}")
        required = {"theory", "N", "g", "n", "gamma"}
        missing = required - set(obj)
        if missing:
            raise ValueError(f"gamma record missing fields: {sorted(missing)}")
        # a string would otherwise unpack as a vector of its characters
        if not isinstance(obj["n"], list) or not isinstance(obj["gamma"], list):
            raise ValueError("gamma record fields n and gamma must be lists")
        # JSON true/false parse as bool, a subclass of int
        if any(isinstance(v, bool) for v in (obj["N"], obj["g"], *obj["n"], *obj["gamma"])):
            raise ValueError("gamma record fields N, g, n and gamma must not hold booleans")
        # a JSON float holds a binary value, not its decimal text: 0.1 would
        # enter an exact table as 3602879701896397/36028797018963968
        if not all(isinstance(v, (int, str)) for v in obj["gamma"]):
            raise ValueError('gamma record entries must be integers or "p/q" strings')
        gamma = [rational_from_str(v) if isinstance(v, str) else Fraction(v) for v in obj["gamma"]]
        self.add(obj["theory"], obj["N"], obj["g"], obj["n"], gamma)

    def add_file(self, path: str) -> None:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
        records = obj if isinstance(obj, list) else [obj]
        for record in records:
            self.add_dict(record)

    def get(self, theory: str, N: int, g: int, x_or_n: Union[StackyType, Sequence[int]]) -> tuple[Fraction, ...]:
        # a non-integer key is refused like in add, not truncated onto another type
        if not is_int(N) or not is_int(g):
            raise ValueError(f"N and genus must be integers, got N={N!r}, g={g!r}")
        n = x_or_n.n if isinstance(x_or_n, StackyType) else nonnegative_ints(x_or_n, "multiplicities")
        key = (theory, N, g, n)
        try:
            return self._table[key]
        except KeyError:
            raise MissingGammaError(
                f"no gamma vector for theory={theory}, N={N}, g={g}, n={list(n)}"
            ) from None


def resolve_gamma(gamma, theory: str, g: int, x: StackyType) -> tuple[Fraction, ...]:
    """Accept either a GammaTable (looked up by type) or a bare vector."""
    if isinstance(gamma, GammaTable):
        return gamma.get(theory, x.N, g, x)
    vec = exact_gamma(gamma)
    if len(vec) != x.total:
        raise ValueError(
            f"gamma vector has length {len(vec)}, type carries {x.total} insertions"
        )
    return vec
