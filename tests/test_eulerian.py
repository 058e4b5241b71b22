import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as stn

from apsums.cli import LIMITS
from apsums.errors import DomainError
from apsums.eulerian import (
    reorder_a_to_b,
    reorder_b_to_a,
    reu_explicit,
    reu_from_ordinary_triangle,
    reu_from_s2fac_triangle,
    reu_triangle,
    s2fac_from_reu_triangle,
)
from apsums.exact import Progression
from apsums.stirling import s2fac_triangle
from apsums.verification import _entries, _progressions, _reorder_roundtrip_violation, _reu_bivariate_egf_violation

F = Fraction


def int_rows(tri):
    return [[int(c) for c in row] for row in tri.rows]


class TestReorder:
    def test_stacked_row_to_single_denominator(self):
        assert reorder_b_to_a([0, 1, 2], 2) == [0, 1, 1]

    def test_unit_vector_expands_binomially(self):
        for n in range(6):
            b = [1] + [0] * n
            expected = [F((-1) ** i * math.comb(n, i)) for i in range(n + 1)]
            assert reorder_b_to_a(b, n) == expected

    def test_degenerate_degree(self):
        assert reorder_b_to_a([0], 0) == [0]
        assert reorder_a_to_b([1], 0) == [1]

    def test_single_denominator_back_to_stacked(self):
        assert reorder_a_to_b([0, 1, 1], 2) == [0, 1, 2]

    def test_length_mismatch(self):
        with pytest.raises(DomainError, match="expected 3 coefficients, got 2"):
            reorder_b_to_a([1, 2], 2)
        with pytest.raises(DomainError, match="expected 2 coefficients, got 3"):
            reorder_a_to_b([1, 2, 3], 1)

    @given(stn.lists(stn.integers(-30, 30), min_size=1, max_size=11))
    def test_roundtrip(self, vec):
        assert _reorder_roundtrip_violation(vec) is None

    @pytest.mark.parametrize("reorder", [reorder_b_to_a, reorder_a_to_b])
    def test_keeps_the_entry_type(self, reorder):
        assert [type(c) for c in reorder([0, 1, 2], 2)] == [int] * 3
        assert [type(c) for c in reorder([F(0), F(1, 2), F(2)], 2)] == [Fraction] * 3


class TestExplicitAndRecurrence:
    def test_small_values(self):
        assert reu_explicit(Progression(2, 1), 2, 1) == 6
        assert reu_explicit(Progression(1, 0), 3, 2) == 4
        assert reu_explicit(Progression(5, 2), 0, 0) == 1

    def test_triangle_rows(self):
        assert int_rows(reu_triangle(Progression(2, 1), 3)) == [
            [1],
            [1, 1],
            [1, 6, 1],
            [1, 23, 23, 1],
        ]
        assert int_rows(reu_triangle(Progression(1, 0), 3)) == [
            [1],
            [0, 1],
            [0, 1, 1],
            [0, 1, 4, 1],
        ]

    @pytest.mark.parametrize("n, k", [(-1, 0), (2, -1), (2, 3)])
    def test_out_of_triangle(self, n, k):
        with pytest.raises(DomainError, match="lies outside the triangle"):
            reu_explicit(Progression(1, 0), n, k)

    def test_four_routes_agree(self, identity):
        identity("eulerian: four routes agree (recurrence, explicit, from S2fac, from ordinary)")

    @pytest.mark.parametrize("prog", [Progression(7, 5), Progression(2**64 - 1, 2**64 - 1)])
    def test_explicit_sum_at_the_row_limit(self, prog):
        size = LIMITS["rows"]
        tri = reu_triangle(prog, size)
        for n in range(size + 1):
            for m in range(n + 1):
                assert tri.entry(n, m) == reu_explicit(prog, n, m), (n, m)


class TestConversions:
    def test_from_s2fac_values(self):
        assert reu_from_s2fac_triangle(Progression(2, 1), 2).entry(2, 1) == 6
        assert reu_from_s2fac_triangle(Progression(1, 0), 4).entry(4, 0) == 0
        assert reu_from_s2fac_triangle(Progression(1, 0), 0).entry(0, 0) == 1

    def test_back_to_s2fac(self):
        assert s2fac_from_reu_triangle(Progression(2, 1), 2).entry(2, 1) == 8
        assert s2fac_from_reu_triangle(Progression(1, 0), 5).entry(5, 5) == math.factorial(5)
        assert s2fac_from_reu_triangle(Progression(2, 1), 0).entry(0, 0) == 1

    def test_roundtrip_with_s2fac_triangle(self, identity):
        identity("eulerian: inverse relation recovers S2(n,m) m! from the Eulerian row")

    def test_from_ordinary_values(self):
        assert reu_from_ordinary_triangle(Progression(2, 1), 2).entry(2, 1) == 6
        assert reu_from_ordinary_triangle(Progression(3, 2), 2).entry(2, 2) == 1
        classical = reu_from_ordinary_triangle(Progression(1, 0), 6)
        for n in range(7):
            for k in range(n + 1):
                assert classical.entry(n, k) == reu_explicit(Progression(1, 0), n, k)

    @pytest.mark.parametrize("n, k", [(-1, 0), (2, -1), (3, 0)])
    @pytest.mark.parametrize("build", [reu_from_s2fac_triangle, s2fac_from_reu_triangle, reu_from_ordinary_triangle])
    def test_out_of_triangle(self, build, n, k):
        with pytest.raises(DomainError, match="outside triangle of size 2"):
            build(Progression(1, 0), 2).entry(n, k)

    @pytest.mark.parametrize("build", [reu_from_s2fac_triangle, s2fac_from_reu_triangle, _entries(reu_explicit)],
                             ids=["reu_from_s2fac_triangle", "s2fac_from_reu_triangle", "reu_explicit"])
    def test_integer_routes_hand_the_triangle_ints(self, build):
        for prog in _progressions(3):
            assert {type(c) for row in build(prog, 6).rows for c in row} == {int}, prog


class TestGeneratingIdentities:
    def test_power_ogf_decomposition(self, identity):
        identity("eulerian: power o.g.f. equals numerator polynomial over (1-x)^(n+1)")

    def test_row_polynomial_from_s2fac(self, identity):
        identity("eulerian: numerator polynomial equals (1-x)^n-twisted factorial-scaled row")

    @given(stn.fractions(min_value=-4, max_value=4, max_denominator=9).filter(lambda x: x != 1))
    def test_bivariate_egf(self, x):
        for prog in (Progression(2, 1), Progression(3, 1)):
            assert _reu_bivariate_egf_violation(prog, reu_triangle(prog, 10), x) is None

    def test_row_sums(self, identity):
        identity("eulerian: row sums equal d^n n! independently of a")

    def test_row_reversal_symmetry(self, identity):
        identity("eulerian: parameter flip a -> d-a reverses every row")

    def test_numerator_degree_bound(self, identity):
        identity("eulerian: the extended explicit sum vanishes just past the diagonal")

    def test_leading_column_is_powers_of_a(self, identity):
        identity("eulerian: column zero carries the pure powers a^n")


class TestStagedTriangleForms:
    """Each staged triangle form builds rows 0..12 at once, and they equal the
    family's own recurrence on the desk grid, at a served point with a > d
    and at the edge of the served domain."""

    @pytest.mark.parametrize("staged, builder", [
        pytest.param(*case, id=case[0].__name__) for case in [
            (reu_from_s2fac_triangle, reu_triangle),
            (s2fac_from_reu_triangle, s2fac_triangle),
            (reu_from_ordinary_triangle, reu_triangle),
        ]
    ])
    def test_matches_builder(self, staged, builder):
        for prog in [*_progressions(3), Progression(7, 5), Progression(2**64 - 1, 2**64 - 1)]:
            assert staged(prog, 12) == builder(prog, 12), prog
