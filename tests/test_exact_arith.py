"""Factorial-family arithmetic and rational serialization.  The Fraction
loops frac_factorial and shifted_factorial live in fraction_reference as the
second route for the integer kernels."""

from __future__ import annotations

import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from fraction_reference import frac_factorial, shifted_factorial
from hhodge.exact_arith import (
    double_factorial,
    frac_factorial_ints,
    multinomial,
    rational_from_str,
    rational_to_str,
    shifted_factorial_ints,
)

small_rationals = st.fractions(
    min_value=Fraction(-20), max_value=Fraction(20), max_denominator=12
)


class TestShiftedFactorial:
    def test_integer_base(self):
        assert shifted_factorial(1, 2) == 6

    def test_half_base(self):
        assert shifted_factorial(Fraction(1, 2), 1) == Fraction(3, 4)

    def test_third_base(self):
        assert shifted_factorial(Fraction(1, 3), 2) == Fraction(28, 27)

    def test_empty_product(self):
        assert shifted_factorial(Fraction(7, 5), -1) == 1

    def test_rejects_k_below_minus_one(self):
        with pytest.raises(ValueError):
            shifted_factorial(1, -2)

    @given(x=small_rationals, k=st.integers(min_value=0, max_value=12))
    def test_one_step_ratio(self, x, k):
        assert shifted_factorial(x, k) == shifted_factorial(x, k - 1) * (x + k)

    @given(
        den=st.integers(min_value=1, max_value=12),
        num=st.integers(min_value=1, max_value=12),
        k=st.integers(min_value=0, max_value=10),
    )
    def test_agrees_with_descending_convention_on_unit_interval(self, den, num, k):
        f = Fraction(min(num, den), den)  # f in (0, 1]
        assert shifted_factorial(f, k) == frac_factorial(k + f)


class TestFracFactorial:
    def test_integer(self):
        assert frac_factorial(4) == 24

    def test_half_integer(self):
        assert frac_factorial(Fraction(5, 2)) == Fraction(15, 8)

    def test_empty_product_interval(self):
        assert frac_factorial(Fraction(-1, 2)) == 1
        assert frac_factorial(0) == 1

    def test_rejects_at_and_below_minus_one(self):
        with pytest.raises(ValueError):
            frac_factorial(-1)
        with pytest.raises(ValueError):
            frac_factorial(Fraction(-3, 2))

    @given(x=st.fractions(min_value=Fraction(1, 12), max_value=20, max_denominator=12))
    def test_one_step_ratio(self, x):
        assert frac_factorial(x) == x * frac_factorial(x - 1)

    @pytest.mark.parametrize("k", range(51))
    def test_half_integer_double_factorial_identity(self, k):
        assert frac_factorial(k + Fraction(1, 2)) == Fraction(
            double_factorial(2 * k + 1), 2 ** (k + 1)
        )


# numerator p and positive denominator q of a kernel argument p/q
denominators = st.integers(min_value=1, max_value=40)


class TestFracFactorialInts:
    @given(q=denominators, data=st.data())
    def test_equals_reference(self, q, data):
        p = data.draw(st.integers(min_value=-q + 1, max_value=400))
        num, den = frac_factorial_ints(p, q)
        assert den > 0
        assert Fraction(num, den) == frac_factorial(Fraction(p, q))

    @given(q=denominators, data=st.data())
    def test_nonpositive_arguments_above_minus_one_give_empty_product(self, q, data):
        p = data.draw(st.integers(min_value=-q + 1, max_value=0))
        assert frac_factorial_ints(p, q) == (1, 1)

    @given(q=denominators, data=st.data())
    def test_rejects_at_and_below_minus_one(self, q, data):
        p = data.draw(st.integers(min_value=-50 * q, max_value=-q))
        with pytest.raises(ValueError):
            frac_factorial_ints(p, q)
        with pytest.raises(ValueError):
            frac_factorial(Fraction(p, q))

    @pytest.mark.parametrize("p", range(30))
    def test_integers_use_the_integer_factorial(self, p):
        assert frac_factorial_ints(p, 1) == (math.factorial(p), 1)


class TestShiftedFactorialInts:
    @given(p=st.integers(min_value=-400, max_value=400), q=denominators,
           k=st.integers(min_value=-1, max_value=12))
    def test_equals_reference(self, p, q, k):
        num, den = shifted_factorial_ints(p, q, k)
        assert den > 0
        assert Fraction(num, den) == shifted_factorial(Fraction(p, q), k)

    @given(p=st.integers(min_value=-400, max_value=400), q=denominators)
    def test_empty_product(self, p, q):
        assert shifted_factorial_ints(p, q, -1) == (1, 1)

    @given(p=st.integers(), q=denominators, k=st.integers(max_value=-2))
    def test_rejects_k_below_minus_one(self, p, q, k):
        with pytest.raises(ValueError):
            shifted_factorial_ints(p, q, k)


class TestDoubleFactorial:
    def test_convention_at_minus_one(self):
        assert double_factorial(-1) == 1

    def test_small_values(self):
        assert double_factorial(1) == 1
        assert double_factorial(5) == 15
        assert double_factorial(7) == 105

    def test_rejects_even(self):
        with pytest.raises(ValueError):
            double_factorial(4)

    def test_rejects_below_minus_one(self):
        with pytest.raises(ValueError):
            double_factorial(-3)


class TestMultinomial:
    def test_pair(self):
        assert multinomial(2, (1, 1)) == 2

    def test_single_block(self):
        assert multinomial(3, (3,)) == 1

    def test_three_parts(self):
        assert multinomial(4, (2, 1, 1)) == 12

    def test_rejects_sum_mismatch(self):
        with pytest.raises(ValueError):
            multinomial(5, (2, 2))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            multinomial(2, (-1, 3))

    @pytest.mark.parametrize(
        "parts",
        [(2, 1, 1), (3, 3), (2, 2, 2), (4, 3), (1, 1, 1, 1), (5, 3), (2, 3, 3)],
    )
    def test_counts_distinct_arrangements(self, parts):
        # independent oracle: count distinct words with the given letter counts
        word = [letter for letter, count in enumerate(parts) for _ in range(count)]
        assert multinomial(sum(parts), parts) == len(set(itertools.permutations(word)))


class TestRationalStrings:
    def test_integer_form(self):
        assert rational_to_str(Fraction(-5)) == "-5"
        assert rational_to_str(0) == "0"

    def test_fraction_form(self):
        assert rational_to_str(Fraction(3, 4)) == "3/4"
        assert rational_to_str(Fraction(-3, 4)) == "-3/4"

    def test_parse(self):
        assert rational_from_str("3/4") == Fraction(3, 4)
        assert rational_from_str("-5") == Fraction(-5)
        assert rational_from_str("+3/4") == Fraction(3, 4)

    @pytest.mark.parametrize("bad", ["1/0", "1/-2", "1.5", "", "a", "1/ 2", " 1", "1/2/3"])
    def test_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            rational_from_str(bad)

    @given(x=st.fractions(max_denominator=10**6))
    def test_round_trip(self, x):
        assert rational_from_str(rational_to_str(x)) == x
