from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as stn

from apsums.cli import LIMITS
from apsums.errors import DomainError
from apsums.exact import Progression, fallfac, risefac
from apsums.fps import Fps
from apsums.lah import (
    lah_four_term,
    lah_inverse,
    lah_inverse_four_term,
    lah_pair,
    lah_sheffer_triangle,
    lah_three_term,
    lah_triangle,
)
from apsums.stirling import s1phat_triangle, s2hat_triangle
from apsums.verification import _progressions

F = Fraction

rationals = stn.fractions(min_value=-5, max_value=5, max_denominator=12)


def int_rows(tri):
    return [[int(c) for c in row] for row in tri.rows]


class TestConstruction:
    def test_ordinary_rows(self):
        assert int_rows(lah_triangle(Progression(1, 0), 3)) == [
            [1],
            [0, 1],
            [0, 2, 1],
            [0, 6, 6, 1],
        ]

    def test_generalized_rows(self):
        assert int_rows(lah_triangle(Progression(2, 1), 2)) == [[1], [2, 1], [8, 8, 1]]

    def test_negative_size(self):
        with pytest.raises(DomainError):
            lah_triangle(Progression(1, 0), -1)

    @pytest.mark.parametrize("prog", [Progression(7, 5), Progression(2**64 - 1, 2**64 - 1)])
    def test_input_limit_matches_product_and_four_term(self, prog):
        for size in (0, 1, 64):
            tri = lah_triangle(prog, size)
            assert tri == s1phat_triangle(prog, size).multiply(s2hat_triangle(prog, size))
        assert tri == lah_four_term(prog, 64)
        assert all(type(c) is int for row in tri.rows for c in row)

    @pytest.mark.parametrize("prog", [Progression(7, 5), Progression(2**64 - 1, 2**64 - 1)])
    def test_sheffer_pair_matches_the_recurrence_at_the_input_limit(self, prog):
        assert lah_sheffer_triangle(prog, LIMITS["rows"]) == lah_triangle(prog, LIMITS["rows"])


class TestRecurrences:
    def test_four_term_entries(self):
        tri = lah_four_term(Progression(2, 1), 3)
        assert tri.entry(2, 1) == 8
        assert tri.entry(3, 1) == 72
        assert lah_four_term(Progression(1, 0), 3).entry(3, 2) == 6

    def test_three_term_entries(self):
        assert lah_three_term(Progression(1, 0), 4).entry(4, 2) == 36
        assert lah_three_term(Progression(2, 1), 2).entry(2, 1) == 8
        assert lah_three_term(Progression(2, 0), 2).entry(2, 1) == 4

    def test_all_routes_agree(self, identity):
        identity("lah: product, Sheffer, four-term and three-term routes agree")
        for prog in _progressions(3):  # size 0 is below every verify depth
            tri = lah_triangle(prog, 0)
            assert lah_sheffer_triangle(prog, 0) == tri
            assert lah_four_term(prog, 0) == tri
            assert lah_three_term(prog, 0) == tri

    def test_printed_variant_agrees_only_for_unit_step(self):
        for a in (0, 1):
            prog = Progression(1, a)
            assert lah_three_term(prog, 6, printed=True) == lah_triangle(prog, 6)
        for prog in (Progression(2, 1), Progression(2, 0), Progression(3, 1)):
            assert lah_three_term(prog, 4, printed=True) != lah_triangle(prog, 4)

    def test_printed_variant_first_divergence(self):
        printed = lah_three_term(Progression(2, 1), 2, printed=True)
        assert printed.entry(2, 1) == 6  # the reference value is 8


class TestInverse:
    def test_sign_rule(self):
        assert lah_inverse(Progression(1, 0), 3).entry(3, 2) == -6
        assert lah_inverse(Progression(2, 1), 2).entry(2, 1) == -8

    def test_product_is_identity(self, identity):
        identity("lah: inverse triangle: signed entries, own recurrence, identity product")

    @pytest.mark.parametrize("prog", [Progression(7, 5), Progression(2**64 - 1, 2**64 - 1)])
    def test_row_limit_matches_four_term(self, prog):
        size = LIMITS["rows"]
        assert lah_inverse(prog, size) == lah_inverse_four_term(prog, size)


class TestTransitionIdentities:
    @given(stn.integers(1, 3), stn.integers(0, 3), rationals)
    def test_rising_in_falling_basis(self, d, a, x):
        prog = Progression(d, a)
        tri = lah_triangle(prog, 8)
        for n in range(9):
            acc = F(0)
            for m in range(n + 1):
                acc += tri.entry(n, m) * fallfac(prog, x, m)
            assert acc == risefac(prog, x, n)

    @given(stn.integers(1, 3), stn.integers(0, 3), rationals)
    def test_falling_in_rising_basis(self, d, a, x):
        prog = Progression(d, a)
        inv = lah_inverse(prog, 8)
        for n in range(9):
            acc = F(0)
            for m in range(n + 1):
                acc += inv.entry(n, m) * risefac(prog, x, m)
            assert acc == fallfac(prog, x, n)


class TestRowPolynomialRecurrences:
    def test_geometric_lowering(self, identity):
        identity("lah: row polynomials obey the geometric lowering recurrence")

    def test_second_order_raising(self, identity):
        identity("lah: second-order raising and plain lowering recurrences (both signs)")


class TestSequences:
    def test_a_sequence(self, identity):
        identity("lah: a- and z-sequences match their closed forms")

    def test_special_z_values(self):
        _, z0 = lah_pair(Progression(1, 0), 9).a_z_sequences(8)
        assert z0 == Fps.zero(8)
        _, z21 = lah_pair(Progression(2, 1), 9).a_z_sequences(8)
        assert z21 == Fps.constant(2, 8)
