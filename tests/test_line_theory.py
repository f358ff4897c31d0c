"""Line-theory calculator: product formula, coefficient system, recursion."""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

import pytest

from hhodge.errors import InadmissibleTypeError, MissingGammaError, SingularMatrixError
from hhodge.line_theory import (
    LINE,
    build_matrix_line,
    matrix_det_line,
    nonstacky_complete_residual_line,
    nonstacky_integral_line,
    nonstacky_recursion_residual_line,
    recursion_residual_line,
    reproduction_residual_line,
    scale_matrix_line,
    seed_exponent_line,
    solve_coefficients,
    stacky_integral_line,
    theta_line,
)
from hhodge.moduli import GammaTable, IntegralSpec, StackyType
from hhodge.sampling import sample_gamma, sample_instance

fr = Fraction

X22 = StackyType(2, (2,))
X311 = StackyType(3, (1, 1))

# admissible fixtures with distinct shapes: (type, g, seed exponent)
SEED_CASES = [
    (X22, 1, 1),
    (X22, 2, 3),
    (X311, 1, 1),
    (X311, 2, 3),
    (StackyType(4, (0, 2, 0)), 1, 1),
    (StackyType(5, (1, 0, 0, 1)), 1, 1),
    (StackyType(2, (4,)), 1, 2),
    (StackyType(3, (0, 3)), 1, 1),
]


def expected_det(x, a):
    # closed form: a^(total-1) * (a + weighted_sum/N)
    return fr(a) ** (x.total - 1) * (fr(a) + fr(x.weighted_sum(), x.N))


def cofactor_det(matrix):
    size = len(matrix)
    if size == 1:
        return fr(matrix[0][0])
    total = fr(0)
    for col in range(size):
        minor = [row[:col] + row[col + 1 :] for row in matrix[1:]]
        total += (-1) ** col * fr(matrix[0][col]) * cofactor_det(minor)
    return total


class TestSeedExponent:
    @pytest.mark.parametrize("x,g,a", SEED_CASES)
    def test_values(self, x, g, a):
        assert seed_exponent_line(g, x) == a

    def test_inadmissible_type_raises(self):
        with pytest.raises(InadmissibleTypeError):
            seed_exponent_line(1, StackyType(2, (1,)))


class TestThetaLine:
    def test_two_half_points(self):
        assert theta_line(1, X22, (1, 0), ()) == (fr(4), fr(4, 3))
        # genus 0: the numerator is (2g-3+n+total)! = 0!, though 2g-3+total = -1
        assert theta_line(0, X22, (0, 0), (1,)) == (fr(2), fr(2))

    def test_position_swap_swaps_entries(self):
        assert theta_line(1, X22, (0, 1), ()) == (fr(4, 3), fr(4))

    def test_mixed_blocks_with_plain_points(self):
        assert theta_line(2, X311, (1, 2), (0, 3)) == (fr(81, 4), fr(81, 2))

    def test_rejects_wrong_exponent_count(self):
        with pytest.raises(ValueError):
            theta_line(1, X22, (1,), ())

    def test_rejects_empty_type(self):
        with pytest.raises(ValueError):
            theta_line(1, StackyType(2, (0,)), (), (1,))

    def test_rejects_negative_dimension_count(self):
        with pytest.raises(ValueError):
            theta_line(0, StackyType(2, (1,)), (0,), ())

    @pytest.mark.parametrize("k,l", [((0.7, 1.2), ()), ((0, 1), (1.5,)), ((True, 0), ()), ((0, 1), (False,))])
    def test_rejects_non_integer_exponents(self, k, l):
        # not truncated to the theta at int(k), int(l)
        with pytest.raises(ValueError, match="integers"):
            theta_line(1, StackyType(2, (2,)), k, l)


class TestMatrixPipeline:
    def test_build(self):
        assert build_matrix_line(X22, 1) == [
            [fr(3, 2), fr(1, 2)],
            [fr(1, 2), fr(3, 2)],
        ]

    def test_det_examples(self):
        assert matrix_det_line(X22, 1) == 2
        assert matrix_det_line(X22, 0) == 0

    @pytest.mark.parametrize("x,g,a", SEED_CASES)
    def test_det_closed_form(self, x, g, a):
        assert matrix_det_line(x, a) == expected_det(x, a)

    def test_det_closed_form_against_cofactor(self):
        rng = random.Random(3)
        for x, _, _ in SEED_CASES:
            if x.total > 4:
                continue
            a = fr(rng.randint(1, 5), rng.randint(1, 3))
            matrix = build_matrix_line(x, a)
            assert det_matches_both(matrix, x, a)

    def test_det_closed_form_large(self):
        x = StackyType(3, (6, 6))
        assert matrix_det_line(x, 2) == expected_det(x, 2)

    def test_scale(self):
        scaled = scale_matrix_line(build_matrix_line(X22, 1), 1, X22, 1)
        assert scaled == [[fr(4), fr(4, 3)], [fr(4, 3), fr(4)]]

    @pytest.mark.parametrize("x,g,a", SEED_CASES)
    def test_scaled_rows_reproduce_theta(self, x, g, a):
        scaled = scale_matrix_line(build_matrix_line(x, a), g, x, a)
        for j, row in enumerate(scaled):
            k = [0] * x.total
            k[j] = a
            assert tuple(row) == theta_line(g, x, tuple(k), ())

    def test_scale_rejects_fractional_exponent(self):
        with pytest.raises(ValueError):
            scale_matrix_line(build_matrix_line(X22, 1), 1, X22, fr(1, 2))

    def test_solve(self):
        scaled = scale_matrix_line(build_matrix_line(X22, 1), 1, X22, 1)
        assert solve_coefficients(scaled, (fr(1, 16), fr(1, 16))) == (
            fr(3, 256),
            fr(3, 256),
        )

    def test_solve_singular(self):
        with pytest.raises(SingularMatrixError):
            solve_coefficients(build_matrix_line(X22, 0), (fr(1), fr(1)))


def det_matches_both(matrix, x, a):
    value = cofactor_det(matrix)
    return value == matrix_det_line(x, a) == expected_det(x, a)


class TestStackyIntegral:
    def test_reproduces_seed_values(self):
        gamma = (fr(1, 16), fr(1, 16))
        spec = IntegralSpec(1, (), (1, 0))
        assert stacky_integral_line(1, X22, spec, gamma) == fr(1, 16)

    @pytest.mark.parametrize("x,g,a", SEED_CASES)
    def test_reproduction_residual_every_position(self, x, g, a):
        rng = random.Random(x.N * 100 + g)
        gamma = sample_gamma(rng, x.total)
        for j in range(x.total):
            assert reproduction_residual_line(g, x, j, gamma) == 0

    def test_gate_violation_gives_zero(self):
        gamma = (fr(1, 16), fr(1, 16))
        spec = IntegralSpec(1, (5,), (1, 0))
        assert stacky_integral_line(1, X22, spec, gamma) == 0

    def test_inadmissible_raises(self):
        with pytest.raises(InadmissibleTypeError):
            stacky_integral_line(1, StackyType(2, (1,)), IntegralSpec(1, (), (0,)), (fr(1),))

    def test_empty_type_raises(self):
        with pytest.raises(ValueError):
            stacky_integral_line(1, StackyType(2, (0,)), IntegralSpec(1, (1,), ()), ())

    def test_genus_mismatch_raises(self):
        with pytest.raises(ValueError):
            stacky_integral_line(2, X22, IntegralSpec(1, (), (1, 0)), (fr(1), fr(1)))

    def test_gamma_table_lookup(self):
        table = GammaTable()
        table.add("line", 2, 1, (2,), ("1/16", "1/16"))
        spec = IntegralSpec(1, (), (1, 0))
        assert stacky_integral_line(1, X22, spec, table) == fr(1, 16)

    def test_missing_gamma_raises(self):
        spec = IntegralSpec(1, (), (1, 0))
        with pytest.raises(MissingGammaError):
            stacky_integral_line(1, X22, spec, GammaTable())

    def test_values_are_linear_in_gamma(self):
        spec = IntegralSpec(1, (), (1, 0))
        base = stacky_integral_line(1, X22, spec, (fr(1, 16), fr(1, 16)))
        doubled = stacky_integral_line(1, X22, spec, (fr(1, 8), fr(1, 8)))
        assert doubled == 2 * base

    def test_values_respond_to_corrupted_gamma(self):
        # the seed-exponent evaluation tracks whatever gamma was supplied,
        # so a corrupted table shifts the computed integrals
        spec = IntegralSpec(1, (), (1, 0))
        honest = stacky_integral_line(1, X22, spec, (fr(1, 16), fr(1, 16)))
        corrupt = stacky_integral_line(1, X22, spec, (fr(1, 16) + 1, fr(1, 16)))
        assert honest == fr(1, 16)
        assert corrupt == fr(1, 16) + 1
        assert corrupt != honest


class TestRecursion:
    @pytest.mark.parametrize(
        "x,g,spec,vk",
        [
            (X22, 1, IntegralSpec(1, (1,), (0, 0)), 1),
            (X22, 1, IntegralSpec(1, (0,), (1, 0)), 1),
            (X22, 1, IntegralSpec(1, (), (0, 0)), 1),
            (X311, 2, IntegralSpec(2, (1,), (1, 0)), 2),
            (X311, 2, IntegralSpec(2, (3, 0), (0, 0)), 2),
            (StackyType(4, (0, 2, 0)), 1, IntegralSpec(1, (1, 1), (0, 0)), 1),
            (StackyType(4, (0, 2, 0)), 1, IntegralSpec(1, (0,), (1, 0)), 1),
        ],
    )
    def test_fixed_instances_vanish(self, x, g, spec, vk):
        gamma = tuple(fr(1, 2 + j) for j in range(x.total))
        assert recursion_residual_line(g, x, spec, vk, gamma) == 0

    def test_residual_vanishes_for_any_gamma(self):
        spec = IntegralSpec(1, (1,), (0, 0))
        for gamma in [(fr(1), fr(1)), (fr(7, 3), fr(-2, 5)), (fr(0), fr(9))]:
            assert recursion_residual_line(1, X22, spec, 1, gamma) == 0

    def test_sampled_instances_vanish(self):
        rng = random.Random(2024)
        for _ in range(25):
            inst = sample_instance(rng, "line")
            assert (
                recursion_residual_line(
                    inst.g, inst.x, inst.spec, inst.vk, inst.gamma
                )
                == 0
            )

    def test_rejects_bad_index(self):
        with pytest.raises(ValueError):
            recursion_residual_line(1, X22, IntegralSpec(1, (), (0, 0)), 0, (fr(1), fr(1)))


class TestNonstackyIntegral:
    def test_one_point_each_genus(self):
        initial = fr(1, 16)
        assert nonstacky_integral_line(1, (1,), initial) == initial
        assert nonstacky_integral_line(2, (3,), initial) == initial

    def test_two_points(self):
        assert nonstacky_integral_line(1, (1, 1), fr(1, 16)) == fr(1, 8)

    def test_symmetric_in_insertions(self):
        assert nonstacky_integral_line(2, (1, 3, 0), 1) == nonstacky_integral_line(
            2, (3, 0, 1), 1
        )

    def test_gate_violation_gives_zero(self):
        assert nonstacky_integral_line(1, (2,), fr(1, 16)) == 0

    def test_multinomial_factor(self):
        assert nonstacky_integral_line(2, (2, 2), 1) == 6

    def test_rejects_genus_zero(self):
        with pytest.raises(ValueError):
            nonstacky_integral_line(0, (1,), 1)

    def test_rejects_empty_insertions(self):
        with pytest.raises(ValueError):
            nonstacky_integral_line(1, (), 1)

    @pytest.mark.parametrize("l,m", [((1.9,), 0), ((True,), 0), ((1,), 0.0), ((0,), True)])
    def test_rejects_non_integer_exponents(self, l, m):
        # (1.9,) is not truncated to (1,), whose value is 1
        with pytest.raises(ValueError, match="integers"):
            nonstacky_integral_line(1, l, 1, m)


class TestNonstackyRecursionDeviation:
    """The displayed recursion leaves out the term of the closed form's
    point-class insertion, so it does not vanish; its residual follows a
    closed form of its own, exactly minus that term, pinned here."""

    def test_trivially_zero_when_incoherent(self):
        # every term in the recursion fails its dimension gate
        assert nonstacky_recursion_residual_line(1, (1, 1), 1, fr(1, 16)) == 0

    @pytest.mark.parametrize(
        "g,l,vk,expected",
        [
            (1, (0,), 1, fr(-1)),
            (2, (2,), 1, fr(-3)),
            (1, (0, 0), 2, fr(-1)),
        ],
    )
    def test_pinned_deviations(self, g, l, vk, expected):
        assert nonstacky_recursion_residual_line(g, l, vk, 1) == expected

    def test_deviation_closed_form(self):
        # on dimension-coherent inputs: -(2g+n-2)! / (vk! prod l_i!) * initial
        initial = fr(1, 16)
        for g, l, vk in [(1, (0,), 1), (2, (2,), 1), (3, (1, 3, 0), 3), (2, (0, 2, 2), 1)]:
            assert sum(l) == 2 * g - 2 + len(l) - vk
            prod_l = math.prod(math.factorial(v) for v in l)
            expected = -fr(
                math.factorial(2 * g + len(l) - 2), math.factorial(vk) * prod_l
            ) * initial
            assert nonstacky_recursion_residual_line(g, l, vk, initial) == expected


def acceptance_instances():
    """The enumeration of the acceptance suite's insertion-only checks."""
    for g in range(1, 5):
        for n in range(1, 5):
            for l in itertools.combinations_with_replacement(range(7), n):
                for vk in (1, 2, 3):
                    yield g, l, vk


class TestNonstackyCompleteRecursion:
    """The complete recursion adds the Virasoro term of the point-class
    insertion.  Moved to psi^m, m >= 1, that term's weight
    (m+1)_{vk+1}/(vk+1)! is no longer 1 and its integral moves with m, so a
    residual that still vanishes there shows the term is an insertion's term
    and not the displayed deviation with its sign flipped."""

    @pytest.mark.parametrize("m", [1, 2, 3])
    def test_zero_with_point_class_at_higher_psi(self, m):
        initial = fr(1, 16)
        coherent = 0
        for g, l, vk in acceptance_instances():
            assert nonstacky_complete_residual_line(g, l, vk, initial, m) == 0
            if sum(l) + m + vk == 2 * g - 2 + len(l):
                # the displayed recursion alone deviates by minus the term:
                # C(m+vk+1, vk+1) (2g+n-2)! / (prod l_i! (m+vk)!) * initial
                prod_l = math.prod(math.factorial(v) for v in l)
                term = math.comb(m + vk + 1, vk + 1) * fr(
                    math.factorial(2 * g + len(l) - 2), prod_l * math.factorial(m + vk)
                ) * initial
                assert LINE.nonstacky_recursion_residual(g, l, vk, initial, m=m) == -term != 0
                coherent += 1
        assert coherent > 50

    def test_default_point_class_keeps_values(self):
        initial = fr(1, 16)
        for g, l, _ in acceptance_instances():
            expected = 0
            if sum(l) == 2 * g - 2 + len(l):
                prod_l = math.prod(math.factorial(v) for v in l)
                expected = fr(math.factorial(2 * g + len(l) - 2), prod_l) * initial
            assert nonstacky_integral_line(g, l, initial) == expected
            assert nonstacky_integral_line(g, l, initial, 0) == expected

    def test_rejects_negative_point_class_exponent(self):
        with pytest.raises(ValueError):
            nonstacky_integral_line(1, (1,), 1, -1)
