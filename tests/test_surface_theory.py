"""Surface-theory calculator: half-shifted formulas, matrix modes, recursion."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest

from hhodge.errors import DegenerateWeightError, InadmissibleTypeError
from hhodge.moduli import IntegralSpec, StackyType
from hhodge.sampling import sample_gamma, sample_instance
from hhodge.surface_theory import (
    SURFACE,
    matrix_det_surface,
    nonstacky_integral_surface,
    nonstacky_recursion_residual_surface,
    reproduction_residual_surface,
    stacky_integral_surface,
)
from hhodge.theory import MATRIX_MODES

fr = Fraction

X22 = StackyType(2, (2,))
X311 = StackyType(3, (1, 1))
LOW_WEIGHT = StackyType(5, (5, 0, 0, 0))  # block weight -1/10, outside (0, 1]
HIGH_WEIGHT = StackyType(5, (0, 0, 0, 5))  # block weight 11/10, outside (0, 1]
DEGENERATE = StackyType(4, (1, 0, 1))  # admissible, block weight exactly 0

# (type, g, seed exponent)
SEED_CASES = [
    (X22, 2, 1),
    (X22, 3, 2),
    (X311, 2, 1),
    (X311, 3, 2),
    (StackyType(4, (0, 2, 0)), 2, 1),
    (StackyType(2, (4,)), 2, 1),
    (LOW_WEIGHT, 1, 3),
    (HIGH_WEIGHT, 5, 1),
]


def expected_det(x, a, mode):
    column_sum = fr(0)
    for i, count in enumerate(x.n, start=1):
        entry = SURFACE.block_weight(x.N, i) if mode == "consistent" else fr(2 * i, x.N)
        column_sum += entry * count
    return fr(a) ** (x.total - 1) * (fr(a) + column_sum)


def cofactor_det(matrix):
    size = len(matrix)
    if size == 1:
        return fr(matrix[0][0])
    total = fr(0)
    for col in range(size):
        minor = [row[:col] + row[col + 1 :] for row in matrix[1:]]
        total += (-1) ** col * fr(matrix[0][col]) * cofactor_det(minor)
    return total


class TestWeights:
    def test_values(self):
        assert SURFACE.block_weight(X22.N, 1) == fr(1, 2)
        assert SURFACE.block_weight(LOW_WEIGHT.N, 1) == fr(-1, 10)
        assert SURFACE.block_weight(HIGH_WEIGHT.N, 4) == fr(11, 10)
        assert SURFACE.block_weight(DEGENERATE.N, 1) == 0


class TestSeedExponent:
    @pytest.mark.parametrize("x,g,a", SEED_CASES)
    def test_values(self, x, g, a):
        assert SURFACE.seed_exponent(g, x) == a

    def test_fractional_exponent_raises(self):
        with pytest.raises(InadmissibleTypeError):
            SURFACE.seed_exponent(1, StackyType(3, (1, 0)))


class TestThetaSurface:
    def test_two_half_points(self):
        assert SURFACE.theta(2, X22, (1, 0), ()) == (fr(3), fr(1))

    def test_mixed_blocks(self):
        assert SURFACE.theta(2, X311, (0, 1), (1,)) == (fr(108, 55), fr(108, 5))

    def test_plain_zero_exponents_step_by_half_integers(self):
        # each added plain insertion multiplies the previous value by the
        # current half-integer dimension total, here 2 then 5/2
        assert SURFACE.theta(2, X22, (1, 0), (0,)) == (fr(6), fr(2))
        assert SURFACE.theta(2, X22, (1, 0), (0, 0)) == (fr(15), fr(5))

    def test_rejects_wrong_exponent_count(self):
        with pytest.raises(ValueError):
            SURFACE.theta(2, X22, (1,), ())

    def test_rejects_empty_type(self):
        with pytest.raises(ValueError):
            SURFACE.theta(1, StackyType(2, (0,)), (), (1,))


class TestMatrixPipeline:
    def test_build_consistent(self):
        assert SURFACE.build_matrix(X22, 1) == [
            [fr(3, 2), fr(1, 2)],
            [fr(1, 2), fr(3, 2)],
        ]

    def test_build_verbatim(self):
        assert SURFACE.build_matrix(X22, 1, "verbatim") == [
            [fr(2), fr(1)],
            [fr(1), fr(2)],
        ]

    def test_rejects_unknown_mode(self):
        with pytest.raises(ValueError):
            SURFACE.build_matrix(X22, 1, "literal")

    def test_det_examples(self):
        assert matrix_det_surface(X22, 1) == 2
        assert matrix_det_surface(X22, 1, "verbatim") == 3

    @pytest.mark.parametrize("mode", MATRIX_MODES)
    @pytest.mark.parametrize("x,g,a", SEED_CASES)
    def test_det_closed_form(self, x, g, a, mode):
        assert matrix_det_surface(x, a, mode) == expected_det(x, a, mode)

    @pytest.mark.parametrize("mode", MATRIX_MODES)
    def test_det_against_cofactor(self, mode):
        rng = random.Random(5)
        for x, _, _ in SEED_CASES:
            if x.total > 4:
                continue
            a = fr(rng.randint(1, 5), rng.randint(1, 3))
            matrix = SURFACE.build_matrix(x, a, mode)
            assert cofactor_det(matrix) == matrix_det_surface(x, a, mode)

    def test_scale_consistent(self):
        scaled = SURFACE.scale_matrix(SURFACE.build_matrix(X22, 1), 2, X22, 1)
        assert scaled == [[fr(3), fr(1)], [fr(1), fr(3)]]

    def test_scale_verbatim(self):
        scaled = SURFACE.scale_matrix(SURFACE.build_matrix(X22, 1, "verbatim"), 2, X22, 1)
        assert scaled == [[fr(4), fr(2)], [fr(2), fr(4)]]

    @pytest.mark.parametrize("x,g,a", SEED_CASES)
    def test_scaled_rows_reproduce_theta(self, x, g, a):
        # holds for every block weight, including those outside (0, 1]
        scaled = SURFACE.scale_matrix(SURFACE.build_matrix(x, a), g, x, a)
        for j, row in enumerate(scaled):
            k = [0] * x.total
            k[j] = a
            assert tuple(row) == SURFACE.theta(g, x, tuple(k), ())

    def test_degenerate_weight_refused(self):
        matrix = SURFACE.build_matrix(DEGENERATE, 1)
        with pytest.raises(DegenerateWeightError):
            SURFACE.scale_matrix(matrix, 2, DEGENERATE, 1)

    def test_degenerate_weight_refused_even_when_inadmissible(self):
        x = StackyType(4, (1, 0, 0))
        matrix = SURFACE.build_matrix(x, 1)
        with pytest.raises(DegenerateWeightError):
            SURFACE.scale_matrix(matrix, 1, x, 1)


class TestStackyIntegral:
    def test_reproduces_seed_values(self):
        spec = IntegralSpec(2, (), (1, 0))
        assert stacky_integral_surface(2, X22, spec, (fr(1), fr(1))) == 1

    @pytest.mark.parametrize("x,g,a", SEED_CASES)
    def test_reproduction_residual_every_position(self, x, g, a):
        rng = random.Random(x.N * 100 + g)
        gamma = sample_gamma(rng, x.total)
        for j in range(x.total):
            assert reproduction_residual_surface(g, x, j, gamma) == 0

    def test_verbatim_mode_fails_to_reproduce_seeds(self):
        residual = reproduction_residual_surface(2, X22, 0, (fr(1), fr(1)), "verbatim")
        assert residual == fr(-1, 3)

    def test_gate_violation_gives_zero(self):
        spec = IntegralSpec(2, (4,), (1, 0))
        assert stacky_integral_surface(2, X22, spec, (fr(1), fr(1))) == 0

    def test_inadmissible_raises(self):
        with pytest.raises(InadmissibleTypeError):
            stacky_integral_surface(
                1, StackyType(2, (1,)), IntegralSpec(1, (), (0,)), (fr(1),)
            )

    def test_degenerate_type_raises_on_gate_passing_spec(self):
        spec = IntegralSpec(2, (), (1, 0))
        with pytest.raises(DegenerateWeightError):
            stacky_integral_surface(2, DEGENERATE, spec, (fr(1), fr(1)))

    def test_values_are_linear_in_gamma(self):
        spec = IntegralSpec(2, (), (1, 0))
        base = stacky_integral_surface(2, X22, spec, (fr(1), fr(1)))
        tripled = stacky_integral_surface(2, X22, spec, (fr(3), fr(3)))
        assert tripled == 3 * base

    def test_values_respond_to_corrupted_gamma(self):
        spec = IntegralSpec(2, (), (1, 0))
        honest = stacky_integral_surface(2, X22, spec, (fr(1), fr(1)))
        corrupt = stacky_integral_surface(2, X22, spec, (fr(2), fr(1)))
        assert honest == 1
        assert corrupt == 2
        assert corrupt != honest


class TestRecursion:
    @pytest.mark.parametrize(
        "x,g,spec,vk",
        [
            (X22, 2, IntegralSpec(2, (1,), (0, 0)), 1),
            (X22, 2, IntegralSpec(2, (0,), (1, 0)), 1),
            (X22, 2, IntegralSpec(2, (), (0, 0)), 1),
            (X22, 2, IntegralSpec(2, (2, 0), (0, 0)), 1),
            (X311, 3, IntegralSpec(3, (0,), (1, 0)), 2),
            (X311, 3, IntegralSpec(3, (1,), (0, 0)), 2),
            (LOW_WEIGHT, 1, IntegralSpec(1, (), (0, 0, 0, 0, 0)), 3),
            (HIGH_WEIGHT, 5, IntegralSpec(5, (1,), (0, 0, 0, 0, 0)), 1),
        ],
    )
    def test_fixed_instances_vanish(self, x, g, spec, vk):
        gamma = tuple(fr(1, 2 + j) for j in range(x.total))
        assert SURFACE.recursion_residual(g, x, spec, vk, gamma) == 0

    def test_plain_zero_exponent_term_is_kept(self):
        # the l = 0 shift term carries nonzero weight -1/(2 vk + 1) here;
        # the instance is dimension-coherent so the cancellation needs it
        spec = IntegralSpec(2, (2, 0), (0, 0))
        gamma = (fr(5, 7), fr(2, 3))
        assert SURFACE.recursion_residual(2, X22, spec, 1, gamma) == 0

    def test_residual_vanishes_for_any_gamma(self):
        spec = IntegralSpec(2, (1,), (0, 0))
        for gamma in [(fr(1), fr(1)), (fr(7, 3), fr(-2, 5)), (fr(4), fr(9))]:
            assert SURFACE.recursion_residual(2, X22, spec, 1, gamma) == 0

    def test_residual_vanishes_in_verbatim_mode_too(self):
        # the recursion holds row by row, so it cannot distinguish the modes;
        # only seed reproduction separates them
        spec = IntegralSpec(2, (1,), (0, 0))
        gamma = (fr(1), fr(1))
        assert SURFACE.recursion_residual(2, X22, spec, 1, gamma, "verbatim") == 0

    def test_sampled_instances_vanish(self):
        rng = random.Random(4048)
        for _ in range(25):
            inst = sample_instance(rng, "surface")
            assert (
                SURFACE.recursion_residual(
                    inst.g, inst.x, inst.spec, inst.vk, inst.gamma
                )
                == 0
            )

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            SURFACE.recursion_residual(
                2, X22, IntegralSpec(2, (), (0, 0)), 0, (fr(1), fr(1))
            )


class TestNonstackyIntegral:
    def test_one_point_genus_one(self):
        assert nonstacky_integral_surface(1, (1,), fr(3)) == 3

    def test_two_points_genus_one(self):
        assert nonstacky_integral_surface(1, (1, 1), 1) == 1

    def test_double_factorial_denominator(self):
        assert nonstacky_integral_surface(1, (2, 0), 1) == fr(1, 3)
        assert nonstacky_integral_surface(2, (2,), 1) == fr(1, 3)

    def test_symmetric_in_insertions(self):
        assert nonstacky_integral_surface(3, (1, 3, 0), 1) == nonstacky_integral_surface(
            3, (3, 0, 1), 1
        )

    def test_gate_violation_gives_zero(self):
        assert nonstacky_integral_surface(1, (2,), 1) == 0

    def test_rejects_genus_zero(self):
        with pytest.raises(ValueError):
            nonstacky_integral_surface(0, (1,), 1)

    def test_rejects_empty_insertions(self):
        with pytest.raises(ValueError):
            nonstacky_integral_surface(1, (), 1)


class TestNonstackyRecursionDeviation:
    """Under neither weight family does the displayed recursion, which leaves
    out the point-class insertion's term, vanish on the closed form; the
    deviations are pinned and related by a fixed ratio."""

    def test_trivially_zero_when_incoherent(self):
        assert nonstacky_recursion_residual_surface(1, (1, 1), 1, 1, "bracket") == 0

    @pytest.mark.parametrize(
        "g,l,vk,family,expected",
        [
            (1, (0,), 1, "bracket", fr(-2, 3)),
            (1, (0,), 1, "printed", fr(0)),
            (2, (1,), 1, "bracket", fr(-2, 3)),
            (2, (1,), 1, "printed", fr(-2, 3)),
        ],
    )
    def test_pinned_deviations(self, g, l, vk, family, expected):
        assert nonstacky_recursion_residual_surface(g, l, vk, 1, family) == expected

    def test_printed_family_vanishes_at_genus_one(self):
        for l, vk in [((0,), 1), ((0, 0), 2), ((1, 0, 0), 3)]:
            if sum(l) != 1 + len(l) - 1 - vk:
                continue
            assert nonstacky_recursion_residual_surface(1, l, vk, 1, "printed") == 0

    def test_deviation_ratio_law(self):
        # on dimension-coherent inputs: printed * 2 vk == bracket * (2g - 2)
        checked = 0
        for g in range(1, 5):
            for n in range(1, 4):
                for l in itertools.combinations_with_replacement(range(5), n):
                    for vk in (1, 2, 3):
                        if sum(l) != g + n - 1 - vk:
                            continue
                        bracket = nonstacky_recursion_residual_surface(g, l, vk, 1, "bracket")
                        printed = nonstacky_recursion_residual_surface(g, l, vk, 1, "printed")
                        assert printed * 2 * vk == bracket * (2 * g - 2)
                        checked += 1
        assert checked > 30

    def test_bracket_family_never_vanishes_when_coherent(self):
        for g, l, vk in [(1, (0,), 1), (2, (1,), 1), (3, (2, 0), 2), (4, (3,), 1)]:
            assert sum(l) == g + len(l) - 1 - vk
            assert nonstacky_recursion_residual_surface(g, l, vk, 1, "bracket") != 0

    def test_rejects_unknown_family(self):
        with pytest.raises(ValueError):
            nonstacky_recursion_residual_surface(1, (0,), 1, 1, "other")
