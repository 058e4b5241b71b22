from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as stn

from apsums.errors import DomainError
from apsums.exact import Progression, fallfac, risefac
from apsums.fps import Fps
from apsums.lah import (
    lah_column0,
    lah_four_term,
    lah_inverse,
    lah_inverse_four_term,
    lah_inverse_pair,
    lah_pair,
    lah_sheffer_triangle,
    lah_three_term,
    lah_triangle,
)
from apsums.poly import Polynomial
from apsums.sheffer import identity_triangle

F = Fraction

rationals = stn.fractions(min_value=-5, max_value=5, max_denominator=12)


def int_rows(tri):
    return [[int(c) for c in row] for row in tri.rows]


def progressions(d_max):
    return [Progression(d, a) for d in range(1, d_max + 1) for a in range(d + 1)]


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

    def test_column_zero_product(self):
        for prog in progressions(3):
            col = lah_column0(prog, 6)
            for n in range(7):
                product = F(1)
                for j in range(n):
                    product *= 2 * prog.a + j * prog.d
                assert col[n] == product

    def test_negative_size(self):
        with pytest.raises(DomainError):
            lah_triangle(Progression(1, 0), -1)


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
        for prog in progressions(3):  # size 0 is below every verify depth
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

    def test_product_is_identity(self):
        for prog in progressions(3):
            tri = lah_triangle(prog, 6)
            inv = lah_inverse(prog, 6)
            assert tri.multiply(inv) == identity_triangle(6)
            assert inv.multiply(tri) == identity_triangle(6)

    def test_inverse_recurrence(self):
        for prog in progressions(3):
            assert lah_inverse_four_term(prog, 8) == lah_inverse(prog, 8)

    def test_inverse_pair_route(self):
        for prog in progressions(2):
            assert lah_inverse_pair(prog, 6).triangle(6) == lah_inverse(prog, 6)


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
    def test_geometric_lowering(self):
        for prog in progressions(3):
            tri = lah_triangle(prog, 8)
            for n in range(1, 9):
                acc = Polynomial()
                deriv = tri.row_polynomial(n)
                for k in range(n):
                    deriv = deriv.derivative()
                    sign = 1 if k % 2 == 0 else -1
                    acc = acc + deriv * (sign * prog.d**k)
                assert acc == n * tri.row_polynomial(n - 1)

    def test_second_order_raising(self):
        x = Polynomial.x()
        for prog in progressions(3):
            tri = lah_triangle(prog, 8)
            d, a = prog.d, prog.a
            for n in range(1, 9):
                p = tri.row_polynomial(n - 1)
                stepped = (
                    Polynomial([2 * a, 1]) * p
                    + Polynomial([a, 1]) * p.derivative() * (2 * d)
                    + x * p.derivative().derivative() * d**2
                )
                assert stepped == tri.row_polynomial(n)

    def test_inverse_mirrors(self):
        x = Polynomial.x()
        for prog in progressions(2):
            inv = lah_inverse(prog, 8)
            d, a = prog.d, prog.a
            for n in range(1, 9):
                q = inv.row_polynomial(n - 1)
                stepped = (
                    Polynomial([-2 * a, 1]) * q
                    - Polynomial([-a, 1]) * q.derivative() * (2 * d)
                    + x * q.derivative().derivative() * d**2
                )
                assert stepped == inv.row_polynomial(n)
                acc = Polynomial()
                deriv = inv.row_polynomial(n)
                for k in range(n):
                    deriv = deriv.derivative()
                    acc = acc + deriv * d**k
                assert acc == n * inv.row_polynomial(n - 1)


class TestSequences:
    def test_a_sequence(self):
        for prog in progressions(3):
            a_seq, _ = lah_pair(prog, 9).a_z_sequences(8)
            assert a_seq == Fps([1, prog.d], order=8)

    def test_z_sequence_closed_form(self):
        for prog in progressions(3):
            _, z_seq = lah_pair(prog, 9).a_z_sequences(8)
            base = Fps([1, prog.d], order=9)
            closed = base * (Fps.one(9) - base.pow(F(-2 * prog.a, prog.d)))
            assert z_seq == closed.shifted_down(1).truncated(8)

    def test_special_z_values(self):
        _, z0 = lah_pair(Progression(1, 0), 9).a_z_sequences(8)
        assert z0 == Fps.zero(8)
        _, z21 = lah_pair(Progression(2, 1), 9).a_z_sequences(8)
        assert z21 == Fps.constant(2, 8)
