"""Deterministic random instances for the verification harness.

Every sampled recursion instance is dimension-coherent: its exponent budget
is chosen so the recursion's terms sit exactly on the dimension gate, making
the residual check meaningful rather than trivially 0 = 0.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

from .line_theory import LINE
from .moduli import IntegralSpec, StackyType, is_admissible
from .surface_theory import SURFACE

__all__ = [
    "EXPONENT_CAP",
    "RecursionInstance",
    "THEORIES",
    "sample_admissible_type",
    "sample_gamma",
    "sample_instance",
]

EXPONENT_CAP = 6

THEORIES = {t.name: t for t in (LINE, SURFACE)}


@dataclass(frozen=True)
class RecursionInstance:
    """A dimension-coherent recursion check: type, exponents, Virasoro index,
    and a synthetic gamma vector."""

    theory: str
    g: int
    x: StackyType
    l: tuple[int, ...]
    k: tuple[int, ...]
    vk: int
    gamma: tuple[Fraction, ...]

    @property
    def spec(self) -> IntegralSpec:
        return IntegralSpec(self.g, self.l, self.k)


def sample_admissible_type(rng: random.Random, theory: str, max_n: int = 5, max_total: int = 6) -> StackyType:
    """Rejection-sample an admissible type with 2 <= N <= max_n, at least two
    insertions and no block of weight zero (only surface blocks can have it)."""
    th = THEORIES[theory]
    while True:
        N = rng.randint(2, max_n)
        total = rng.randint(2, max_total)
        n = [0] * (N - 1)
        for _ in range(total):
            n[rng.randrange(N - 1)] += 1
        x = StackyType(N, tuple(n))
        if x.weighted_sum() % N != 0:
            continue
        if any(count and th.block_weight(N, i) == 0 for i, count in enumerate(n, start=1)):
            continue
        return x


def sample_gamma(rng: random.Random, size: int) -> tuple[Fraction, ...]:
    """Nonzero synthetic initial values with small numerators and denominators."""
    return tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(size))


def sample_instance(rng: random.Random, theory: str) -> RecursionInstance:
    """Draw an admissible, dimension-coherent recursion instance with all
    exponents at most EXPONENT_CAP and Virasoro index in {1, 2, 3}."""
    if theory not in THEORIES:
        raise ValueError(f"theory must be 'line' or 'surface', got {theory!r}")
    th = THEORIES[theory]
    while True:
        x = sample_admissible_type(rng, theory)
        g = rng.randint(1, 4)
        if not is_admissible(g, x):
            continue
        a = th.seed_exponent(g, x)
        if a < 1:
            # the defining system needs a nonzero diagonal shift
            continue
        vk = rng.randint(1, 3)
        n_plain = rng.randint(0, 3)
        budget = a + n_plain - vk
        slots = n_plain + x.total
        if budget < 0 or budget > slots * EXPONENT_CAP:
            continue
        values = [0] * slots
        for _ in range(budget):
            open_slots = [idx for idx in range(slots) if values[idx] < EXPONENT_CAP]
            values[rng.choice(open_slots)] += 1
        return RecursionInstance(
            theory=theory,
            g=g,
            x=x,
            l=tuple(values[:n_plain]),
            k=tuple(values[n_plain:]),
            vk=vk,
            gamma=sample_gamma(rng, x.total),
        )
