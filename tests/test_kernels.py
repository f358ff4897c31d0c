"""The engine's integer kernels against their Fraction route
(fraction_reference), and the shared work of recursion_residual against the
term-by-term sum of public integral calls."""

from __future__ import annotations

import random
from fractions import Fraction
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import fraction_reference as ref
from hhodge.errors import (
    DegenerateWeightError,
    InadmissibleTypeError,
    MissingGammaError,
    SingularMatrixError,
)
from hhodge.line_theory import LINE
from hhodge.moduli import GammaTable, IntegralSpec, StackyType, dim_gate
from hhodge.sampling import sample_instance
from hhodge.surface_theory import SURFACE
from hhodge import theory
from hhodge.theory import Theory

fr = Fraction

THEORIES = {"line": LINE, "surface": SURFACE}
VARIANTS = (("line", "consistent"), ("surface", "consistent"), ("surface", "verbatim"))


def outcome(call):
    """The call's value, or the class and message of what it raised."""
    try:
        return call()
    except Exception as exc:  # compared by class and message across the two routes
        return type(exc), str(exc)


def raised(result) -> bool:
    return isinstance(result, tuple) and len(result) == 2 and isinstance(result[0], type)


def same(got, want) -> bool:
    """Equal values, or refusals of one class (the factorial kernels word
    their messages differently from the Fraction loops)."""
    if raised(got) or raised(want):
        return raised(got) and raised(want) and got[0] is want[0]
    return got == want


@st.composite
def integrands(draw):
    """(theory, g, type, k, l): up to 8 stacky insertions, not always
    admissible, exponents up to 8 and up to 3 plain insertions."""
    th = THEORIES[draw(st.sampled_from(sorted(THEORIES)))]
    N = draw(st.integers(min_value=2, max_value=8))
    g = draw(st.integers(min_value=0, max_value=4))
    blocks = draw(st.lists(st.integers(min_value=1, max_value=N - 1), min_size=1, max_size=8))
    n = tuple(blocks.count(i) for i in range(1, N))
    exponents = st.integers(min_value=0, max_value=8)
    k = tuple(draw(st.lists(exponents, min_size=len(blocks), max_size=len(blocks))))
    l = tuple(draw(st.lists(exponents, max_size=3)))
    return th, g, StackyType(N, n), k, l


class TestKernelsAgainstFractions:
    @settings(max_examples=300, deadline=None)
    @given(integrands())
    def test_theta(self, case):
        th, g, x, k, l = case
        theta = outcome(lambda: th.theta(g, x, k, l))
        assert same(theta, outcome(lambda: ref.theta(th, g, x, k, l)))
        if not raised(theta):
            assert all(type(t) is Fraction for t in theta)

    @settings(max_examples=300, deadline=None)
    @given(integrands(), st.integers(min_value=0, max_value=8))
    def test_row_scale(self, case, a):
        th, g, x, _, _ = case
        assert same(outcome(lambda: th.row_scale(g, x, a)), outcome(lambda: ref.row_scale(th, g, x, a)))

    @settings(max_examples=300, deadline=None)
    @given(st.sampled_from(sorted(THEORIES)), st.integers(min_value=1, max_value=16),
           st.integers(min_value=-50, max_value=200), st.integers(min_value=1, max_value=4))
    def test_weight(self, name, q, p, vk):
        th = THEORIES[name]
        assert fr(*th._weight(p, q, vk)) == ref.weight(th, fr(p, q), vk)

    @settings(max_examples=300, deadline=None)
    @given(integrands())
    def test_dim_gate(self, case):
        th, g, x, k, l = case
        spec = IntegralSpec(g, l, k)
        assert dim_gate(g, x, spec, th.s) == ref.dim_gate(g, x, spec, th.s)

    @settings(max_examples=300, deadline=None)
    @given(integrands(), st.sampled_from(("consistent", "verbatim")), st.randoms(use_true_random=False))
    def test_integral_is_coefficients_dot_theta(self, case, mode, rng):
        th, g, x, k, l = case
        gamma = tuple(fr(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(x.total))
        spec = IntegralSpec(g, l, k)

        value = outcome(lambda: th.integral(g, x, spec, gamma, mode))
        if raised(value):
            return
        assert type(value) is Fraction
        if ref.dim_gate(g, x, spec, th.s):
            coeffs = th.coefficients(g, x, gamma, mode)
            assert value == sum((c * t for c, t in zip(coeffs, ref.theta(th, g, x, k, l))), fr(0))
        else:
            assert value == 0


def _instances(name, seed, count):
    rng = random.Random(seed)
    return [sample_instance(rng, name) for _ in range(count)]


def _perturbed_numerator(self, g, n_plain, M):
    # theta's numerator scaled by n + 2: the recursion no longer holds, so
    # the two routes must agree term by term and not just on 0
    num, den = _numerator(self, g, n_plain, M)
    return num * (n_plain + 2), den


_numerator = Theory._numerator


class TestSharedRecursion:
    @pytest.mark.parametrize("name, mode", VARIANTS)
    def test_sampled_instances_match_term_by_term(self, name, mode):
        th = THEORIES[name]
        for inst in _instances(name, 7, 40):
            expected = ref.termwise_residual(th, inst.g, inst.x, inst.spec, inst.vk, inst.gamma, mode)
            assert th.recursion_residual(inst.g, inst.x, inst.spec, inst.vk, inst.gamma, mode) == expected

    @pytest.mark.parametrize("name, mode", VARIANTS)
    def test_off_gate_instances_are_zero_both_ways(self, name, mode):
        th = THEORIES[name]
        for inst in _instances(name, 8, 20):
            spec = IntegralSpec(inst.g, inst.l, (inst.k[0] + 1,) + inst.k[1:])
            assert th.recursion_residual(inst.g, inst.x, spec, inst.vk, inst.gamma, mode) == 0
            assert ref.termwise_residual(th, inst.g, inst.x, spec, inst.vk, inst.gamma, mode) == 0

    @pytest.fixture
    def perturbed(self, monkeypatch):
        # the caches hold row scales built from the numerator: empty them
        # on the way in and on the way out
        theory._system.cache_clear()
        theory._solve.cache_clear()
        monkeypatch.setattr(Theory, "_numerator", _perturbed_numerator)
        yield
        monkeypatch.undo()
        theory._system.cache_clear()
        theory._solve.cache_clear()

    @pytest.mark.parametrize("name, mode", VARIANTS)
    def test_nonzero_residuals_match_term_by_term(self, name, mode, perturbed):
        th = THEORIES[name]
        nonzero = 0
        for inst in _instances(name, 9, 30):
            got = th.recursion_residual(inst.g, inst.x, inst.spec, inst.vk, inst.gamma, mode)
            assert got == ref.termwise_residual(th, inst.g, inst.x, inst.spec, inst.vk, inst.gamma, mode)
            nonzero += got != 0
        assert nonzero >= 20


X22 = StackyType(2, (2,))
GAMMA = (fr(1, 16), fr(1, 16))
SPEC = IntegralSpec(1, (1,), (0, 0))  # the added term passes the line gate at vk = 1
# the line at genus 0 with a = 0 and four insertions: singular, and on the
# gate with one plain insertion at psi^0 and vk = 1
SINGULAR = StackyType(2, (4,))
DEGENERATE = StackyType(4, (1, 0, 1))  # surface block weight 2/4 - 1/2 = 0

# (theory, g, x, spec, vk, gamma, mode, exception class)
REFUSALS = {
    "bad mode": (LINE, 1, X22, SPEC, 1, GAMMA, "dense", ValueError),
    "vk zero": (LINE, 1, X22, SPEC, 0, GAMMA, "consistent", ValueError),
    "vk negative": (SURFACE, 1, X22, SPEC, -1, GAMMA, "consistent", ValueError),
    "vk not an integer": (LINE, 1, X22, SPEC, 1.0, GAMMA, "consistent", ValueError),
    "genus mismatch": (LINE, 2, X22, SPEC, 1, GAMMA, "consistent", ValueError),
    "too few k": (LINE, 1, X22, IntegralSpec(1, (1,), (0,)), 1, GAMMA, "consistent", ValueError),
    "too many k": (SURFACE, 1, X22, IntegralSpec(1, (1,), (0, 0, 0)), 1, GAMMA, "consistent", ValueError),
    "negative l": (LINE, 1, X22, SimpleNamespace(g=1, l=(-1,), k=(0, 0)), 1, GAMMA, "consistent", ValueError),
    "negative k": (LINE, 1, X22, SimpleNamespace(g=1, l=(1,), k=(0, -1)), 1, GAMMA, "consistent", ValueError),
    "boolean l": (LINE, 1, X22, SimpleNamespace(g=1, l=(True,), k=(0, 0)), 1, GAMMA, "consistent", ValueError),
    "boolean k": (SURFACE, 1, X22, SimpleNamespace(g=1, l=(1,), k=(False, 0)), 1, GAMMA, "consistent",
                  ValueError),
    "inadmissible type": (LINE, 1, StackyType(3, (1, 0)), IntegralSpec(1, (1,), (0,)), 1, (fr(1),),
                          "consistent", InadmissibleTypeError),
    "empty type": (SURFACE, 1, StackyType(2, (0,)), IntegralSpec(1, (1,), ()), 1, (), "consistent",
                   ValueError),
    "gamma too short": (LINE, 1, X22, SPEC, 1, GAMMA[:1], "consistent", ValueError),
    "float gamma": (LINE, 1, X22, SPEC, 1, (0.1, 0.1), "consistent", ValueError),
    "missing gamma": (LINE, 1, X22, SPEC, 1, GammaTable(), "consistent", MissingGammaError),
    "singular on the gate": (LINE, 0, SINGULAR, IntegralSpec(0, (0,), (0, 0, 0, 0)), 1, (fr(1),) * 4,
                             "consistent", SingularMatrixError),
    "degenerate on the gate": (SURFACE, 2, DEGENERATE, IntegralSpec(2, (), (0, 0)), 1, GAMMA, "consistent",
                               DegenerateWeightError),
}


class TestSharedRecursionRefusals:
    @pytest.mark.parametrize("case", sorted(REFUSALS))
    def test_refused_as_term_by_term(self, case):
        th, g, x, spec, vk, gamma, mode, error = REFUSALS[case]
        shared = outcome(lambda: th.recursion_residual(g, x, spec, vk, gamma, mode))
        assert shared[0] is error
        assert shared == outcome(lambda: ref.termwise_residual(th, g, x, spec, vk, gamma, mode))

    def test_singular_type_off_the_gate_is_zero(self):
        # no term passes the gate, so nothing is solved and nothing raised
        spec = IntegralSpec(0, (0,), (1, 0, 0, 0))
        assert LINE.recursion_residual(0, SINGULAR, spec, 1, (fr(1),) * 4) == 0
        assert ref.termwise_residual(LINE, 0, SINGULAR, spec, 1, (fr(1),) * 4) == 0

    def test_float_gamma_refused_by_integral(self):
        # before, 0.1 entered at its binary value 3602879701896397/36028797018963968
        with pytest.raises(ValueError, match="gamma entries"):
            LINE.integral(1, X22, IntegralSpec(1, (), (1, 0)), (0.1, 0.1))
