"""Closed-form solve and determinant of the defining systems, checked
against dense elimination, and the bounds of the solve's caches."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hhodge import theory
from hhodge._linalg import det_exact, solve_exact
from hhodge.errors import SingularMatrixError
from hhodge.line_theory import LINE
from hhodge.moduli import StackyType
from hhodge.surface_theory import SURFACE

fr = Fraction

THEORIES = {"line": LINE, "surface": SURFACE}
VARIANTS = (("line", "consistent"), ("surface", "consistent"), ("surface", "verbatim"))

rationals = st.fractions(min_value=-20, max_value=20, max_denominator=12)


@st.composite
def systems(draw):
    """(theory, mode, g, N, multiplicities, gamma) with 1..12 stacky
    insertions; most types are made admissible through their last block."""
    name, mode = draw(st.sampled_from(VARIANTS))
    N = draw(st.integers(min_value=2, max_value=8))
    g = draw(st.integers(min_value=0, max_value=3))
    blocks = draw(st.lists(st.integers(min_value=1, max_value=N - 1), min_size=1, max_size=12))
    if len(blocks) > 1 and draw(st.integers(min_value=0, max_value=3)):
        last = -sum(blocks[:-1]) % N
        if last:
            blocks[-1] = last
    n = tuple(blocks.count(i) for i in range(1, N))
    gamma = tuple(draw(st.lists(rationals, min_size=len(blocks), max_size=len(blocks))))
    return name, mode, g, N, n, gamma


def outcome(call):
    """The call's value, or the class of what it raised."""
    try:
        return call()
    except Exception as exc:  # compared by class across the two routes
        return type(exc)


def eliminated(th, g, x, gamma, mode):
    a = th.seed_exponent(g, x)
    return tuple(solve_exact(th.scale_matrix(th.build_matrix(x, a, mode), g, x, a), gamma))


class TestAgainstElimination:
    @settings(max_examples=200, deadline=None)
    @given(systems())
    # a = 0 on the line and on the surface in both modes
    @example(("line", "consistent", 0, 2, (4,), (fr(1), fr(2), fr(3), fr(4))))
    @example(("surface", "consistent", 1, 2, (2,), (fr(1), fr(1))))
    @example(("surface", "verbatim", 1, 2, (2,), (fr(1), fr(-1))))
    # a = 0 and a + sum(w) = 0 at once
    @example(("surface", "consistent", 0, 6, (1, 1, 0, 0, 0), (fr(1), fr(1))))
    # M = 1, at a = 1 and at a = 0, where c = y/(a + w) must not divide by a
    @example(("surface", "consistent", 2, 2, (1,), (fr(3, 7),)))
    @example(("surface", "consistent", 1, 2, (1,), (fr(3, 7),)))
    @example(("surface", "verbatim", 1, 2, (1,), (fr(-5, 2),)))
    # a < 0, a degenerate block, an inadmissible type
    @example(("line", "consistent", 0, 3, (2, 0), (fr(1), fr(1))))
    @example(("surface", "consistent", 2, 4, (1, 0, 1), (fr(1), fr(1))))
    @example(("line", "consistent", 1, 3, (1, 0), (fr(1),)))
    def test_coefficients_and_errors_match(self, system):
        name, mode, g, N, n, gamma = system
        th, x = THEORIES[name], StackyType(N, n)
        closed = outcome(lambda: th.coefficients(g, x, gamma, mode))
        assert closed == outcome(lambda: eliminated(th, g, x, gamma, mode))
        if isinstance(closed, tuple):
            assert all(type(c) is Fraction for c in closed)

    @settings(max_examples=200, deadline=None)
    @given(systems(), rationals)
    def test_det_matches(self, system, a):
        name, mode, g, N, n, _ = system
        th, x = THEORIES[name], StackyType(N, n)
        assert th.det(x, a, mode) == det_exact(th.build_matrix(x, a, mode))
        seed = outcome(lambda: th.seed_exponent(g, x))
        if isinstance(seed, int):
            det = th.det(x, seed, mode)
            assert type(det) is Fraction
            assert det == det_exact(th.build_matrix(x, seed, mode))


class TestSingularity:
    def test_zero_seed_exponent_is_named(self):
        with pytest.raises(SingularMatrixError, match=r"a = 0 with 4 stacky insertions"):
            LINE.coefficients(0, StackyType(2, (4,)), (fr(1),) * 4, "consistent")

    def test_both_factors_are_named(self):
        # surface genus 0 with M = 2: a + sum(w) = g - 1 + M/2 = 0, and with
        # a >= 0 also a = 1 - 2 sum(i n_i)/N = 0
        with pytest.raises(SingularMatrixError, match=r"a = 0 with 2 stacky insertions and a \+ sum\(w\) = 0"):
            SURFACE.coefficients(0, StackyType(6, (1, 1, 0, 0, 0)), (fr(1), fr(1)), "consistent")

    def test_one_insertion_does_not_divide_by_a(self):
        # a = 0, w = 1/2: (a + w) c = gamma / D
        x = StackyType(2, (1,))
        (c,) = SURFACE.coefficients(1, x, (fr(1),), "consistent")
        assert c == eliminated(SURFACE, 1, x, (fr(1),), "consistent")[0]
        assert SURFACE.det(x, 0) == fr(1, 2)


class TestCacheBounds:
    def test_many_gamma_vectors_stay_bounded(self):
        x = StackyType(3, (1, 1))
        first = (fr(1), fr(2))
        expected = eliminated(LINE, 1, x, first, "consistent")
        for i in range(20_000):
            LINE.coefficients(1, x, (fr(i + 1), fr(i, 7)), "consistent")
            assert theory._solve.cache_info().currsize <= theory.COEFF_CACHE_SIZE
        # an evicted vector is solved again to the same value
        assert LINE.coefficients(1, x, first, "consistent") == expected

    def test_many_types_stay_bounded(self):
        for g in range(1, 2 * theory.TYPE_CACHE_SIZE):
            LINE.coefficients(g, StackyType(2, (2,)), (fr(1), fr(g)), "consistent")
            assert theory._system.cache_info().currsize <= theory.TYPE_CACHE_SIZE
        assert theory._solve.cache_info().currsize <= theory.COEFF_CACHE_SIZE
