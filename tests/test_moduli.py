"""Twisted-curve type bookkeeping: ranks, admissibility, dimension gates, tables."""

from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hhodge.errors import MissingGammaError
from hhodge.moduli import (
    GammaTable,
    IntegralSpec,
    StackyType,
    dim_gate_line,
    dim_gate_surface,
    is_admissible,
    rank_r1,
    rank_rNm1,
    resolve_gamma,
)

fr = Fraction


@st.composite
def stacky_types(draw, max_root=12, max_count=4):
    n_root = draw(st.integers(min_value=2, max_value=max_root))
    counts = draw(
        st.lists(
            st.integers(min_value=0, max_value=max_count),
            min_size=n_root - 1,
            max_size=n_root - 1,
        )
    )
    return StackyType(n_root, tuple(counts))


class TestStackyType:
    def test_rejects_root_order_below_two(self):
        with pytest.raises(ValueError):
            StackyType(1, ())

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            StackyType(3, (1,))

    def test_rejects_negative_count(self):
        with pytest.raises(ValueError):
            StackyType(2, (-1,))

    @pytest.mark.parametrize("N,n", [(2, (1.5,)), (2, (2.0,)), (2, (True,)), (3, (1, False)), (True, ())])
    def test_rejects_non_integers_and_booleans(self, N, n):
        with pytest.raises(ValueError, match="integer"):
            StackyType(N, n)

    def test_total_and_weighted_sum(self):
        x = StackyType(4, (1, 0, 2))
        assert x.total == 3
        assert x.weighted_sum() == 1 + 2 * 3

    def test_blocks(self):
        x = StackyType(4, (2, 0, 1))
        assert x.blocks() == (1, 1, 3)
        assert x.block_of(0) == 1
        assert x.block_of(2) == 3
        with pytest.raises(ValueError):
            x.block_of(3)

    def test_prefix(self):
        x = StackyType(4, (2, 0, 1))
        assert x.prefix(0) == 0
        assert x.prefix(1) == 2
        assert x.prefix(2) == 2
        assert x.prefix(3) == 3


class TestRanks:
    def test_two_points_of_weight_one_half(self):
        x = StackyType(2, (2,))
        assert rank_r1(3, x) == 3
        assert rank_rNm1(3, x) == 3

    def test_mixed_blocks(self):
        x = StackyType(3, (1, 1))
        assert rank_r1(2, x) == 2
        assert rank_rNm1(2, x) == 2

    def test_empty_type(self):
        x = StackyType(2, (0,))
        assert rank_r1(1, x) == 0
        assert rank_rNm1(1, x) == 0

    @given(g=st.integers(min_value=0, max_value=10), x=stacky_types())
    def test_rank_sum_identity(self, g, x):
        assert rank_r1(g, x) + rank_rNm1(g, x) - 1 == 2 * g + x.total - 3


class TestAdmissibility:
    def test_single_half_point_rejected(self):
        assert not is_admissible(1, StackyType(2, (1,)))

    def test_pair_of_half_points_accepted(self):
        assert is_admissible(1, StackyType(2, (2,)))

    def test_genus_zero_needs_nonnegative_rank(self):
        assert is_admissible(0, StackyType(2, (2,)))
        assert not is_admissible(0, StackyType(2, (0,)))

    @given(x=stacky_types(), g=st.integers(min_value=1, max_value=9))
    def test_depends_only_on_type_for_positive_genus(self, x, g):
        assert is_admissible(g, x) == is_admissible(1, x)


class TestDimensionGates:
    def test_line_plain_points_only(self):
        x = StackyType(2, (0,))
        spec = IntegralSpec(g=1, l=(1,), k=())
        assert dim_gate_line(1, x, spec)
        assert not dim_gate_line(1, x, IntegralSpec(g=1, l=(2,), k=()))

    def test_line_stacky_points_only(self):
        x = StackyType(2, (2,))
        assert dim_gate_line(1, x, IntegralSpec(g=1, l=(), k=(1, 0)))

    def test_surface_plain_points_only(self):
        x = StackyType(2, (0,))
        assert dim_gate_surface(1, x, IntegralSpec(g=1, l=(1,), k=()))
        assert not dim_gate_surface(1, x, IntegralSpec(g=1, l=(0,), k=()))

    def test_surface_stacky_points_only(self):
        x = StackyType(2, (2,))
        assert dim_gate_surface(2, x, IntegralSpec(g=2, l=(), k=(1, 0)))

    def test_gate_checks_spec_consistency(self):
        x = StackyType(2, (2,))
        with pytest.raises(ValueError):
            dim_gate_line(1, x, IntegralSpec(g=2, l=(), k=(1, 0)))
        with pytest.raises(ValueError):
            dim_gate_line(1, x, IntegralSpec(g=1, l=(), k=(1,)))

    @given(
        g=st.integers(min_value=0, max_value=4),
        l=st.lists(st.integers(min_value=0, max_value=5), max_size=3),
        k=st.lists(st.integers(min_value=0, max_value=5), min_size=2, max_size=2),
    )
    def test_gates_ignore_order_within_a_block(self, g, l, k):
        x = StackyType(3, (2, 0))
        fwd = IntegralSpec(g=g, l=tuple(l), k=tuple(k))
        rev = IntegralSpec(g=g, l=tuple(reversed(l)), k=tuple(reversed(k)))
        assert dim_gate_line(g, x, fwd) == dim_gate_line(g, x, rev)
        assert dim_gate_surface(g, x, fwd) == dim_gate_surface(g, x, rev)


class TestIntegralSpec:
    def test_rejects_negative_exponents(self):
        with pytest.raises(ValueError):
            IntegralSpec(g=1, l=(-1,), k=())
        with pytest.raises(ValueError):
            IntegralSpec(g=1, l=(), k=(-2,))
        with pytest.raises(ValueError):
            IntegralSpec(g=-1, l=(), k=())

    @pytest.mark.parametrize(
        "g,l,k", [(1, (1.9,), ()), (1, (), (0.5, 1)), (1, (True,), ()), (1, (), (False,)), (True, (), ())]
    )
    def test_rejects_non_integers_and_booleans(self, g, l, k):
        with pytest.raises(ValueError, match="integer"):
            IntegralSpec(g, l, k)


class TestGammaTable:
    def test_add_and_get(self):
        table = GammaTable()
        table.add("line", 2, 1, (2,), (fr(1, 16), fr(1, 16)))
        assert table.get("line", 2, 1, StackyType(2, (2,))) == (fr(1, 16), fr(1, 16))

    def test_missing_raises(self):
        table = GammaTable()
        with pytest.raises(MissingGammaError):
            table.get("line", 2, 1, StackyType(2, (2,)))

    def test_conflicting_entry_rejected(self):
        table = GammaTable()
        table.add("line", 2, 1, (2,), (fr(1), fr(2)))
        with pytest.raises(ValueError):
            table.add("line", 2, 1, (2,), (fr(1), fr(3)))

    def test_identical_re_add_is_idempotent(self):
        table = GammaTable()
        table.add("line", 2, 1, (2,), (fr(1), fr(2)))
        table.add("line", 2, 1, (2,), (fr(1), fr(2)))
        assert table.get("line", 2, 1, StackyType(2, (2,))) == (fr(1), fr(2))

    def test_rejects_wrong_vector_length(self):
        table = GammaTable()
        with pytest.raises(ValueError):
            table.add("line", 2, 1, (2,), (fr(1),))

    def test_rejects_unknown_theory(self):
        table = GammaTable()
        with pytest.raises(ValueError):
            table.add("plane", 2, 1, (2,), (fr(1), fr(2)))

    def test_add_dict_requires_fields(self):
        table = GammaTable()
        with pytest.raises(ValueError):
            table.add_dict({"theory": "line", "N": 2, "g": 1, "n": [2]})
        # JSON booleans are not integers or rationals
        record = {"theory": "line", "N": 2, "g": 1, "n": [2], "gamma": ["1", "1"]}
        for field, value in (("g", True), ("N", True), ("n", [True, True]), ("gamma", [True, "1"])):
            with pytest.raises(ValueError):
                table.add_dict(dict(record, **{field: value}))
        # nor are non-integer N, g and n truncated to integers
        for field, value in (("g", 1.5), ("N", 2.0), ("n", [2.5])):
            with pytest.raises(ValueError, match="integer"):
                table.add_dict(dict(record, **{field: value}))

    @pytest.mark.parametrize(
        "N, g, n",
        [(2, 1.5, (2,)), (2, 1, (2.7,)), (2, 1.5, (2.7,)), (2, True, (2,)), (2, 1, (True, 1)), (2.0, 1, (2,))],
    )
    def test_get_refuses_non_integer_keys(self, N, g, n):
        table = GammaTable()
        table.add("line", 2, 1, (2,), ["1/16", "1/16"])
        with pytest.raises(ValueError, match="integer"):
            table.get("line", N, g, n)

    def test_add_file_single_object_and_list(self, tmp_path):
        single = tmp_path / "one.json"
        single.write_text(
            json.dumps(
                {"theory": "line", "N": 2, "g": 1, "n": [2], "gamma": ["1/16", "1/16"]}
            )
        )
        listed = tmp_path / "two.json"
        listed.write_text(
            json.dumps(
                [
                    {"theory": "surface", "N": 2, "g": 2, "n": [2], "gamma": ["1", "1"]},
                    {"theory": "line", "N": 3, "g": 1, "n": [1, 1], "gamma": ["1/9", "2/9"]},
                ]
            )
        )
        table = GammaTable()
        table.add_file(single)
        table.add_file(listed)
        assert table.get("line", 2, 1, StackyType(2, (2,))) == (fr(1, 16), fr(1, 16))
        assert table.get("surface", 2, 2, StackyType(2, (2,))) == (fr(1), fr(1))
        assert table.get("line", 3, 1, StackyType(3, (1, 1))) == (fr(1, 9), fr(2, 9))

    def test_load_order_does_not_matter(self, tmp_path):
        a = tmp_path / "a.json"
        b = tmp_path / "b.json"
        a.write_text(json.dumps({"theory": "line", "N": 2, "g": 1, "n": [2], "gamma": ["1", "2"]}))
        b.write_text(json.dumps({"theory": "line", "N": 2, "g": 2, "n": [2], "gamma": ["3", "4"]}))
        fwd, rev = GammaTable(), GammaTable()
        fwd.add_file(a)
        fwd.add_file(b)
        rev.add_file(b)
        rev.add_file(a)
        for g in (1, 2):
            assert fwd.get("line", 2, g, StackyType(2, (2,))) == rev.get(
                "line", 2, g, StackyType(2, (2,))
            )


class TestResolveGamma:
    def test_sequence_passthrough(self):
        x = StackyType(2, (2,))
        assert resolve_gamma((fr(1), 2), "line", 1, x) == (fr(1), fr(2))

    def test_rejects_wrong_length(self):
        x = StackyType(2, (2,))
        with pytest.raises(ValueError):
            resolve_gamma((fr(1),), "line", 1, x)

    def test_table_lookup(self):
        table = GammaTable()
        table.add("surface", 2, 2, (2,), (fr(5), fr(7)))
        x = StackyType(2, (2,))
        assert resolve_gamma(table, "surface", 2, x) == (fr(5), fr(7))
