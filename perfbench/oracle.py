"""Exact reference values for the benchmark, computed without the package.

Every value the benchmark checks is recomputed here by a second route:
factorial products in integers, the defining system aI + 1w^T solved in
closed form (Sherman-Morrison) instead of by elimination, and the one-point
series from Bernoulli numbers instead of series log/exp.  The verify report
is rebuilt from the same pseudo-random draws as the package's sampler, so
its serialized form must match byte for byte.  Nothing here imports hhodge.
"""

from __future__ import annotations

import json
import math
import random
from fractions import Fraction

EXPONENT_CAP = 6


def blocks(n):
    return tuple(i for i, count in enumerate(n, start=1) for _ in range(count))


def weighted_sum(n):
    return sum(i * v for i, v in enumerate(n, start=1))


def desc_fact(p: int, q: int) -> Fraction:
    """Descending factorial of p/q (q > 0), stopping at the value in (0, 1]."""
    num = den = 1
    while p > 0:
        num *= p
        den *= q
        p -= q
    return Fraction(num, den)


def rising(p: int, q: int, k: int) -> Fraction:
    """(p/q)(p/q + 1)...(p/q + k), k + 1 factors."""
    num = 1
    for m in range(k + 1):
        num *= p + m * q
    return Fraction(num, q ** (k + 1))


# --- the two theories ------------------------------------------------------


class Theory:
    """Exact reference for one theory: 'line', 'consistent' or 'verbatim'."""

    def __init__(self, kind: str, N: int, g: int, n):
        self.kind, self.N, self.g, self.n = kind, N, g, tuple(n)
        self.blocks = blocks(n)
        self.M = len(self.blocks)
        if kind == "line":
            a = Fraction(2 * g - 2 + self.M) - Fraction(weighted_sum(n), N)
            self.w = [Fraction(b, N) for b in self.blocks]
            self.col = self.w
        else:
            a = Fraction(g - 1 + self.M) - Fraction(2 * weighted_sum(n), N)
            self.w = [Fraction(4 * b - N, 2 * N) for b in self.blocks]
            self.col = self.w if kind == "consistent" else [Fraction(2 * b, N) for b in self.blocks]
        assert a.denominator == 1, "inadmissible type"
        self.a = int(a)
        self._coeffs: dict = {}

    def gate(self, l, k) -> bool:
        return sum(l) + sum(k) == self.a + len(l)

    def theta(self, k, l):
        N = self.N
        if self.kind == "line":
            top = 2 * self.g - 3 + len(l) + self.M
            num = math.factorial(top)
            den = 1
            for lj in l:
                den *= math.factorial(lj)
            for kj, b in zip(k, self.blocks):
                for m in range(kj + 1):
                    num *= N
                    den *= b + m * N
            base = Fraction(num, den)
            return [base * Fraction(kr * N + b, N) for kr, b in zip(k, self.blocks)]
        base = self._numerator(len(l))
        us = [Fraction(2 * N * kj + 4 * b - N, 2 * N) for kj, b in zip(k, self.blocks)]
        den = Fraction(1)
        for lj in l:
            den *= desc_fact(2 * lj - 1, 2)
        for u in us:
            den *= desc_fact(u.numerator, u.denominator)
        base /= den
        return [base * u for u in us]

    def _numerator(self, n_plain: int) -> Fraction:
        value = desc_fact(2 * self.g + self.M - 3, 2)
        for m in range(1, n_plain + 1):
            value *= Fraction(2 * self.g + m + self.M - 3, 2)
        return value

    def row_scale(self):
        """Diagonal D of the scaled system: row j of D(aI + 1 col^T)."""
        N, a = self.N, self.a
        if self.kind == "line":
            top = math.factorial(2 * self.g - 3 + self.M)
            prod = Fraction(1)
            for b in self.blocks:
                prod *= Fraction(b, N)
            return [Fraction(b, N) * top / (rising(b, N, a) * prod) for b in self.blocks]
        fw = [desc_fact(w.numerator, w.denominator) for w in self.w]
        prod = math.prod(fw, start=Fraction(1))
        base = self._numerator(0)
        return [
            base * f / (desc_fact((a + w).numerator, (a + w).denominator) * prod)
            for f, w in zip(fw, self.w)
        ]

    def coefficients(self, gamma):
        gamma = tuple(gamma)
        c = self._coeffs.get(gamma)
        if c is None:
            y = [gj / dj for gj, dj in zip(gamma, self.row_scale())]
            s = sum(v * yj for v, yj in zip(self.col, y)) / (self.a + sum(self.col))
            c = [(yj - s) / self.a for yj in y]
            self._coeffs[gamma] = c
        return c

    def integral(self, l, k, gamma) -> Fraction:
        if not self.gate(l, k):
            return Fraction(0)
        c = self.coefficients(gamma)
        return sum((ci * ti for ci, ti in zip(c, self.theta(k, l))), Fraction(0))

    def reproduction_residual(self, j, gamma) -> Fraction:
        k = [0] * self.M
        k[j] = self.a
        return self.integral((), k, gamma) - Fraction(gamma[j])

    def det(self) -> Fraction:
        return Fraction(self.a) ** (self.M - 1) * (self.a + sum(self.col))


# --- one-point series ------------------------------------------------------


def bernoulli(count: int):
    """B_0..B_count with B_1 = -1/2."""
    B = [Fraction(0)] * (count + 1)
    for m in range(count + 1):
        B[m] = Fraction(1) if m == 0 else -sum(math.comb(m + 1, j) * B[j] for j in range(m)) / (m + 1)
    return B


_SERIES_CACHE: dict = {}


def _basic(U: int):
    """sigma_i = [t^2i] (t/2)/sin(t/2), ell_m = [t^2m] log((t/2)/sin(t/2)),
    and powers ell^j / j! as lists in u = t^2, all truncated at u^U."""
    hit = _SERIES_CACHE.get(U)
    if hit:
        return hit
    B = bernoulli(2 * U)
    sigma = [
        (-1) ** (i + 1) * 2 * (Fraction(2) ** (2 * i - 1) - 1) * B[2 * i]
        / (math.factorial(2 * i) * 4 ** i)
        for i in range(U + 1)
    ]
    ell = [Fraction(0)] + [
        -((-1) ** m) * Fraction(2) ** (2 * m - 1) * B[2 * m] / (4 ** m * m * math.factorial(2 * m))
        for m in range(1, U + 1)
    ]
    powers = [[Fraction(1)] + [Fraction(0)] * U]
    for j in range(1, U + 1):
        prev = powers[-1]
        powers.append([
            sum((prev[d - e] * ell[e] for e in range(1, d + 1)), Fraction(0)) / j
            for d in range(U + 1)
        ])
    _SERIES_CACHE[U] = (sigma, ell, powers)
    return _SERIES_CACHE[U]


def _sinc_exp(s: int, U: int):
    """[u^d z^j] of sinc_1 * exp(z L_s), with L_s = sum s^(2m) ell_m u^m."""
    sigma, _, powers = _basic(U)
    out = []
    for j, p in enumerate(powers):
        out.append([
            sum((sigma[d - e] * p[e] * s ** (2 * e) for e in range(j, d + 1)), Fraction(0))
            for d in range(U + 1)
        ])
    return out  # out[j][d]


def _as_rows(table, order: int, scale: Fraction):
    rows = []
    for t in range(order + 1):
        if t % 2:
            rows.append(())
            continue
        zs = [table[j][t // 2] * scale for j in range(len(table))]
        while zs and zs[-1] == 0:
            zs.pop()
        rows.append(tuple(zs))
    return rows


def hodge_onepoint(order: int):
    U = order // 2
    return _as_rows(_sinc_exp(1, U), order, Fraction(1))


def hurwitz_hodge_onepoint(N: int, order: int):
    U = order // 2
    return _as_rows(_sinc_exp(N, U), order, Fraction(1, N))


def initial_onepoint(N: int, order: int):
    U = order // 2
    a, b = _sinc_exp(N, U), _sinc_exp(1, U)
    diff = [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]
    return _as_rows(diff, order, Fraction(1, N))


def extract_line_initial(N: int, g: int) -> Fraction:
    sigma, ell, _ = _basic(g)
    return Fraction(1, N) * sum(sigma[g - m] * (N ** (2 * m) - 1) * ell[m] for m in range(1, g + 1))


# --- the verify report -----------------------------------------------------


# The insertion-only audit panel is seed-independent; these are its values
# at the commit that defined the benchmark: (family, g, initial, l, residual, vk).
_AUDIT = {
    "line": [
        ("displayed", 1, "1/16", [0], "-1/16", 1),
        ("displayed", 1, "1/16", [1, 1], "0", 1),
        ("displayed", 2, "1/192", [2], "-1/64", 1),
        ("displayed", 2, "1/192", [2, 0], "0", 1),
    ],
    "surface": [
        ("bracket", 1, "1", [0], "-2/3", 1),
        ("printed", 1, "1", [0], "0", 1),
        ("bracket", 1, "1", [1, 1], "0", 1),
        ("printed", 1, "1", [1, 1], "0", 1),
        ("bracket", 2, "1", [2], "0", 1),
        ("printed", 2, "1", [2], "0", 1),
        ("bracket", 2, "1", [2, 0], "-2/3", 1),
        ("printed", 2, "1", [2, 0], "-2/3", 1),
    ],
}


def _audit(theory: str):
    keys = ("family", "g", "initial", "l", "residual", "vk")
    return [dict(zip(keys, row)) for row in _AUDIT[theory]]


def _sample_type(rng: random.Random, theory: str):
    while True:
        N = rng.randint(2, 5)
        total = rng.randint(2, 6)
        n = [0] * (N - 1)
        for _ in range(total):
            n[rng.randrange(N - 1)] += 1
        if weighted_sum(n) % N:
            continue
        if theory == "surface" and any(c and 4 * i == N for i, c in enumerate(n, start=1)):
            continue
        return N, tuple(n)


def _sample_instance(rng: random.Random, theory: str, kind: str):
    while True:
        N, n = _sample_type(rng, theory)
        g = rng.randint(1, 4)
        th = Theory(kind, N, g, n)
        if th.a < 1:
            continue
        vk = rng.randint(1, 3)
        n_plain = rng.randint(0, 3)
        budget = th.a + n_plain - vk
        slots = n_plain + th.M
        if budget < 0 or budget > slots * EXPONENT_CAP:
            continue
        values = [0] * slots
        for _ in range(budget):
            open_slots = [i for i in range(slots) if values[i] < EXPONENT_CAP]
            values[rng.choice(open_slots)] += 1
        gamma = tuple(Fraction(rng.randint(1, 9), rng.randint(1, 9)) for _ in range(th.M))
        return th, values[:n_plain], values[n_plain:], vk, gamma


def _verify_mode(theory: str, mode: str | None):
    return (mode or "consistent") if theory == "surface" else None


def verify_draws(theory: str, seed: int, samples: int, mode: str | None = None):
    """The sampler's draws for one verify run: (theory, l, k, vk, gamma, j)
    per sample, without computing any residual."""
    kind = _verify_mode(theory, mode) or "line"
    rng = random.Random(seed)
    draws = []
    for _ in range(samples):
        th, l, k, vk, gamma = _sample_instance(rng, theory, kind)
        draws.append((th, l, k, vk, gamma, rng.randrange(th.M)))
    return draws


def verify_report(theory: str, seed: int, samples: int, mode: str | None = None) -> dict:
    """The report run_verify must produce.  Recursion residuals vanish
    identically in every mode; seed residuals vanish except in verbatim mode."""
    mode = _verify_mode(theory, mode)
    kind = mode or "line"
    rows = []

    def record(row_kind, payload, residual):
        row = {"index": len(rows), "kind": row_kind, **payload}
        row["residual"] = str(residual)
        row["pass"] = residual == 0
        rows.append(row)

    if theory == "surface":
        witness = Theory(kind, 2, 2, (2,))
        record("seed", {"N": 2, "g": 2, "n": [2], "j": 0, "gamma": ["1", "1"]},
               witness.reproduction_residual(0, (Fraction(1), Fraction(1))))
    for th, l, k, vk, gamma, j in verify_draws(theory, seed, samples, mode):
        gamma_s = [str(v) for v in gamma]
        common = {"N": th.N, "g": th.g, "n": list(th.n)}
        record("recursion", {**common, "l": l, "k": k, "vk": vk, "gamma": gamma_s}, Fraction(0))
        residual = th.reproduction_residual(j, gamma) if kind == "verbatim" else Fraction(0)
        record("seed", {**common, "j": j, "gamma": gamma_s}, residual)
    return {
        "theory": theory,
        "matrix_mode": mode,
        "seed": seed,
        "samples": samples,
        "rows": rows,
        "nonstacky_audit": _audit(theory),
        "failures": sum(1 for row in rows if not row["pass"]),
    }


def emitted(obj) -> str:
    """What the CLI prints for a JSON result."""
    return json.dumps(obj, indent=2, sort_keys=True) + "\n"


# --- insertion-only closed forms -------------------------------------------


def multinomial(top: int, parts) -> int:
    out = math.factorial(top)
    for p in parts:
        out //= math.factorial(p)
    return out


def _double_fact(m: int) -> int:
    return math.prod(range(m, 0, -2))


def nonstacky_surface(g: int, l) -> Fraction:
    """(2g+n-3)! (2g-1)!! / ((2g-1)! prod (2 l_i - 1)!!) for sum(l) = g + n - 1."""
    value = Fraction(math.factorial(2 * g + len(l) - 3) * _double_fact(2 * g - 1), math.factorial(2 * g - 1))
    for li in l:
        value /= _double_fact(2 * li - 1)
    return value
