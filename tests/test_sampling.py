"""Deterministic instance sampling for the verification harness."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hhodge.line_theory import LINE
from hhodge.moduli import is_admissible
from hhodge.sampling import (
    EXPONENT_CAP,
    sample_admissible_type,
    sample_gamma,
    sample_instance,
)
from hhodge.surface_theory import SURFACE


class TestSampleAdmissibleType:
    @pytest.mark.parametrize("theory", ["line", "surface"])
    def test_types_are_admissible_with_two_or_more_insertions(self, theory):
        rng = random.Random(1)
        for _ in range(50):
            x = sample_admissible_type(rng, theory)
            assert x.weighted_sum() % x.N == 0
            assert 2 <= x.total <= 6
            assert 2 <= x.N <= 5

    def test_surface_types_avoid_degenerate_weights(self):
        rng = random.Random(2)
        for _ in range(50):
            x = sample_admissible_type(rng, "surface")
            for i, count in enumerate(x.n, start=1):
                if count > 0:
                    assert SURFACE.block_weight(x.N, i) != 0


class TestSampleGamma:
    def test_size_and_positivity(self):
        rng = random.Random(3)
        vec = sample_gamma(rng, 4)
        assert len(vec) == 4
        assert all(isinstance(v, Fraction) and v > 0 for v in vec)


class TestSampleInstance:
    def test_deterministic(self):
        first = [sample_instance(random.Random(9), "line") for _ in range(5)]
        second = [sample_instance(random.Random(9), "line") for _ in range(5)]
        assert first == second

    @pytest.mark.parametrize("theory", ["line", "surface"])
    def test_instances_are_dimension_coherent(self, theory):
        rng = random.Random(10)
        for _ in range(30):
            inst = sample_instance(rng, theory)
            assert inst.theory == theory
            assert is_admissible(inst.g, inst.x)
            if theory == "line":
                a = LINE.seed_exponent(inst.g, inst.x)
            else:
                a = SURFACE.seed_exponent(inst.g, inst.x)
            assert a >= 1
            assert 1 <= inst.vk <= 3
            # the budget puts every recursion term exactly on its gate
            assert sum(inst.l) + sum(inst.k) == a + len(inst.l) - inst.vk
            assert all(0 <= v <= EXPONENT_CAP for v in inst.l + inst.k)
            assert len(inst.gamma) == inst.x.total
            assert inst.spec.g == inst.g
            assert inst.spec.l == inst.l
            assert inst.spec.k == inst.k

    def test_rejects_unknown_theory(self):
        with pytest.raises(ValueError):
            sample_instance(random.Random(0), "plane")
