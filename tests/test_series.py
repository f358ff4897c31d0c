"""The one-point tables, their polynomial coefficients, and a second route
to every row through integer powers of sinc."""

from __future__ import annotations

import math
from fractions import Fraction

import pytest

from hhodge.series import (
    DEFAULT_ORDER,
    ZPoly,
    extract_line_initial,
    hodge_onepoint,
    hurwitz_hodge_onepoint,
    initial_onepoint,
)

fr = Fraction

# Classical Bernoulli numbers, used as an independent oracle below.
BERNOULLI = {2: fr(1, 6), 4: fr(-1, 30), 6: fr(1, 42), 8: fr(-1, 30), 10: fr(5, 66), 12: fr(-691, 2730)}


def poly(*coeffs):
    return ZPoly(tuple(fr(c) for c in coeffs))


# --- plain Fraction lists in u = t^2, truncated at u^D ----------------------


def cauchy(a, b, D):
    return [sum((a[i] * b[d - i] for i in range(d + 1)), fr(0)) for d in range(D + 1)]


def sinc_u(N, D):
    """(Nt/2)/sin(Nt/2) by long division of sin(Nt/2)/(Nt/2)."""
    den = [fr((-1) ** i * N ** (2 * i), 4 ** i * math.factorial(2 * i + 1)) for i in range(D + 1)]
    out = [fr(1)]
    for d in range(1, D + 1):
        out.append(-sum((den[i] * out[d - i] for i in range(1, d + 1)), fr(0)))
    return out


def power(f, z, D):
    """f^z for an integer z >= 0, by repeated Cauchy products."""
    out = [fr(1)] + [fr(0)] * D
    for _ in range(z):
        out = cauchy(out, f, D)
    return out


def at(p, z):
    """The ZPoly p evaluated at z."""
    return sum((c * z**j for j, c in enumerate(p.coeffs)), fr(0))


def row(series, z, D):
    """Rows u^0..u^D of a table at one value of z."""
    return [at(series.coeff(2 * d), z) for d in range(D + 1)]


class TestZPoly:
    def test_trailing_zeros_trimmed(self):
        assert poly(1, 2, 0, 0) == poly(1, 2)
        assert poly(0, 0).is_zero()

    def test_degree_and_coeff(self):
        p = poly(3, 0, 5)
        assert p.degree() == 2
        assert p.coeff(1) == 0
        assert p.coeff(2) == 5
        assert p.coeff(9) == 0

    def test_arithmetic(self):
        p, q = poly(1, 1), poly(1, -1)
        assert p - q == poly(0, 2)
        assert q - poly(1, -1, 3) == poly(0, 0, -3)
        assert p.scale(fr(1, 2)) == poly(fr(1, 2), fr(1, 2))


class TestSeriesArithmetic:
    def test_rejects_order_mismatch(self):
        with pytest.raises(ValueError):
            hodge_onepoint(4) - hodge_onepoint(6)

    def test_inverse_round_trip(self):
        # sinc^(1+z) at z = -1 is sinc * sinc^(-1) = 1
        assert row(hodge_onepoint(20), -1, 10) == [fr(1)] + [fr(0)] * 10

    def test_exp_log_round_trip(self):
        # exp(-log sinc_N) inverts sinc_N: the twisted table at z = -1 is sinc/(N sinc_N)
        for N in (2, 3, 5):
            twisted = row(hurwitz_hodge_onepoint(N, 16), -1, 8)
            assert cauchy(twisted, sinc_u(N, 8), 8) == [c / N for c in sinc_u(1, 8)]


class TestSincHalf:
    """sinc = (t/2)/sin(t/2) is the z^0 row of the Hodge table, and its
    scaled form sinc_N enters the twisted table through z."""

    def test_unit_scale_coefficients(self):
        f = hodge_onepoint(8)
        assert f.coeff(0) == poly(1)
        assert f.coeff(2, 0) == fr(1, 24)
        assert f.coeff(4, 0) == fr(7, 5760)
        assert f.coeff(6, 0) == fr(31, 967680)

    def test_long_division_oracle(self):
        # sinc is the reciprocal of 1 - t^2/24 + t^4/1920 - ...
        denominator = [fr(1), fr(-1, 24), fr(1, 1920), fr(-1, 322560), fr(1, 92897280)]
        assert cauchy(row(hodge_onepoint(8), 0, 4), denominator, 4) == [fr(1), 0, 0, 0, 0]

    @pytest.mark.parametrize("scale", range(1, 7))
    def test_quadratic_term_scales(self, scale):
        # [t^2] sinc_N^z = z N^2/24, divided by N in the twisted table
        assert hurwitz_hodge_onepoint(scale, 4).coeff(2, 1) == fr(scale * scale, 24 * scale)

    def test_odd_rows_vanish(self):
        f = hurwitz_hodge_onepoint(5, 11)
        assert all(f.coeff(k).is_zero() for k in range(1, 12, 2))

    def test_rejects_bad_scale(self):
        with pytest.raises(ValueError):
            initial_onepoint(0, 4)


class TestPowZShift:
    """sinc_N^z, the power the twisted table carries, at z = 0 and z = 1."""

    def test_unit_exponent_is_identity(self):
        twisted = row(hurwitz_hodge_onepoint(3, 16), 1, 8)
        assert twisted == [c / 3 for c in cauchy(sinc_u(1, 8), sinc_u(3, 8), 8)]

    def test_zero_exponent_is_one(self):
        assert row(hurwitz_hodge_onepoint(2, 12), 0, 6) == [c / 2 for c in sinc_u(1, 6)]


class TestIntegerPowers:
    """Row t^(2d) has z-degree at most d, so its values at z = 0..d fix it.
    Each value is checked against integer powers of sinc and sinc_N built by
    repeated Cauchy products, a route that shares nothing with the log/exp
    recurrences of the tables."""

    ORDER = 24

    @pytest.mark.parametrize("N", range(1, 7))
    def test_rows_match_integer_powers(self, N):
        D = self.ORDER // 2
        sinc, sinc_N = sinc_u(1, D), sinc_u(N, D)
        tables = {
            "hodge": hodge_onepoint(self.ORDER),
            "hurwitz": hurwitz_hodge_onepoint(N, self.ORDER),
            "initial": initial_onepoint(N, self.ORDER),
        }
        for series in tables.values():
            assert all(series.coeff(2 * d).degree() <= d for d in range(D + 1))
        for z in range(D + 1):
            plain, twisted = power(sinc, z, D), power(sinc_N, z, D)
            expected = {
                "hodge": cauchy(sinc, plain, D),
                "hurwitz": [c / N for c in cauchy(sinc, twisted, D)],
                "initial": [(a - b) / N for a, b in zip(cauchy(sinc, twisted, D), cauchy(sinc, plain, D))],
            }
            for kind, series in tables.items():
                assert row(series, z, D) == expected[kind], (kind, z)

    def test_lower_orders_are_prefixes(self):
        for table in (hodge_onepoint, lambda o: hurwitz_hodge_onepoint(4, o), lambda o: initial_onepoint(3, o)):
            full = table(self.ORDER)
            for order in range(self.ORDER):
                part = table(order)
                assert part.order == order
                assert part.coeffs == full.coeffs[: order + 1]


class TestExactTypes:
    def test_every_coefficient_is_a_fraction(self):
        # an empty sum divided by an int would be the float 0.0
        for order in range(6):
            for N in (1, 2, 3):
                for series in (hodge_onepoint(order), hurwitz_hodge_onepoint(N, order), initial_onepoint(N, order)):
                    assert all(type(c) is Fraction for p in series.coeffs for c in p.coeffs)
                    assert len(series.coeffs) == order + 1
        for N in (1, 2, 5):
            for g in (1, 2, 6):
                assert type(extract_line_initial(N, g)) is Fraction

    @pytest.mark.parametrize("order", [2.5, True, -1, "4", None])
    def test_bad_order_refused(self, order):
        for call in (hodge_onepoint, lambda o: hurwitz_hodge_onepoint(2, o), lambda o: initial_onepoint(2, o)):
            with pytest.raises(ValueError):
                call(order)

    def test_boolean_n_and_genus_refused(self):
        for call in (
            lambda: hurwitz_hodge_onepoint(True, 4),
            lambda: initial_onepoint(True, 4),
            lambda: extract_line_initial(True, 1),
            lambda: extract_line_initial(2, True),
            lambda: extract_line_initial(2.0, 1),
        ):
            with pytest.raises(ValueError):
                call()


class TestHodgeOnePoint:
    def test_low_order_values(self):
        f = hodge_onepoint(12)
        assert f.coeff(0) == poly(1)
        assert f.coeff(2) == poly(fr(1, 24), fr(1, 24))
        assert f.coeff(2, 0) == fr(1, 24)
        assert f.coeff(4, 0) == fr(7, 5760)
        assert f.coeff(6, 0) == fr(31, 967680)

    def test_odd_rows_vanish(self):
        f = hodge_onepoint(9)
        assert all(f.coeff(k).is_zero() for k in range(1, 10, 2))

    @pytest.mark.parametrize("g", range(1, 7))
    def test_top_coefficient_against_bernoulli(self, g):
        # classical closed form for the scalar row of the one-point table
        half_pow = 2 ** (2 * g - 1)
        expected = fr(half_pow - 1, half_pow) * abs(BERNOULLI[2 * g]) / math.factorial(2 * g)
        assert hodge_onepoint(2 * g).coeff(2 * g, 0) == expected

    @pytest.mark.parametrize("g", range(7))
    def test_polynomial_degree_matches_genus(self, g):
        assert hodge_onepoint(12).coeff(2 * g).degree() == g

    def test_default_order(self):
        assert hodge_onepoint().order == DEFAULT_ORDER


class TestHurwitzHodgeOnePoint:
    def test_constant_term(self):
        for n_root in (1, 2, 3, 5):
            assert hurwitz_hodge_onepoint(n_root, 6).coeff(0) == poly(fr(1, n_root))

    def test_collapses_at_one(self):
        assert hurwitz_hodge_onepoint(1, 16) == hodge_onepoint(16)

    def test_first_stacky_row(self):
        assert hurwitz_hodge_onepoint(2, 4).coeff(2, 1) == fr(1, 12)

    def test_rejects_bad_root_order(self):
        with pytest.raises(ValueError):
            hurwitz_hodge_onepoint(0, 4)


class TestInitialOnePoint:
    def test_scalar_row_vanishes(self):
        f = initial_onepoint(3, 12)
        assert all(f.coeff(k, 0) == 0 for k in range(13))

    @pytest.mark.parametrize("n_root", range(2, 6))
    def test_leading_value(self, n_root):
        expected = fr(n_root * n_root - 1, 24 * n_root)
        assert initial_onepoint(n_root, 4).coeff(2, 1) == expected

    def test_vanishes_at_root_order_one(self):
        f = initial_onepoint(1, 10)
        assert f.order == 10
        assert all(p.is_zero() for p in f.coeffs)

    @pytest.mark.parametrize("n_root", range(1, 7))
    def test_difference_route_agrees(self, n_root):
        # second route: subtract the untwisted table from the twisted one
        direct = initial_onepoint(n_root, 20)
        diff = hurwitz_hodge_onepoint(n_root, 20) - hodge_onepoint(20).scale(fr(1, n_root))
        assert direct == diff


class TestExtractLineInitial:
    def test_known_values(self):
        assert extract_line_initial(2, 1) == fr(1, 16)
        assert extract_line_initial(3, 1) == fr(1, 9)
        assert extract_line_initial(2, 2) == fr(1, 192)

    @pytest.mark.parametrize("g", range(1, 4))
    def test_untwisted_initials_vanish(self, g):
        assert extract_line_initial(1, g) == 0

    def test_rejects_genus_zero(self):
        with pytest.raises(ValueError):
            extract_line_initial(2, 0)

    def test_rejects_insufficient_order(self):
        # genus 3 sits at t^6, beyond an order-4 table
        with pytest.raises(ValueError):
            initial_onepoint(2, 4).coeff(6, 1)

    def test_explicit_order_matches_default(self):
        # the value read from a longer table is the same
        assert extract_line_initial(3, 2) == initial_onepoint(3, 10).coeff(4, 1)
        for N in range(1, 7):
            table = initial_onepoint(N, 32)
            assert all(extract_line_initial(N, g) == table.coeff(2 * g, 1) for g in range(1, 17))
