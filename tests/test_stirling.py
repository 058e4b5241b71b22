import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as stn

from apsums.cli import LIMITS
from apsums.errors import DomainError, OutOfTriangle
from apsums.exact import Progression, fallfac, risefac
from apsums.fps import Fps
from apsums.poly import Polynomial, fallfac_poly
from apsums.sheffer import identity_triangle
from apsums.stirling import (
    monomial_in_fallfac,
    s1_pair,
    s1_triangle,
    s1hat_pair,
    s1p_ordinary_schlomilch,
    s1p_triangle,
    s1phat_from_ordinary,
    s1phat_from_sigma,
    s1phat_schlomilch,
    s1phat_schlomilch_v2,
    s1phat_triangle,
    s2_explicit,
    s2_from_ordinary,
    s2_ordinary_from_general,
    s2_pair,
    s2_triangle,
    s2fac_triangle,
    s2hat_triangle,
)
from apsums.symfunc import Alphabet, complete_h

F = Fraction

rationals = stn.fractions(min_value=-5, max_value=5, max_denominator=12)


def int_rows(tri):
    return [[int(c) for c in row] for row in tri.rows]


def progressions(d_max):
    return [Progression(d, a) for d in range(1, d_max + 1) for a in range(d + 1)]


class TestSecondKindTriangle:
    def test_generalized_rows(self):
        tri = s2_triangle(Progression(2, 1), 3)
        assert int_rows(tri) == [[1], [1, 2], [1, 8, 4], [1, 26, 36, 8]]
        scaled = s2hat_triangle(Progression(2, 1), 3)
        assert int_rows(scaled)[3] == [1, 13, 9, 1]

    def test_classical_rows(self):
        tri = s2_triangle(Progression(1, 0), 3)
        assert int_rows(tri) == [[1], [0, 1], [0, 1, 1], [0, 1, 3, 1]]

    def test_row_zero(self):
        assert int_rows(s2_triangle(Progression(4, 3), 0)) == [[1]]

    def test_explicit_formula(self):
        assert s2_explicit(Progression(2, 1), 3, 2) == 36
        assert s2_explicit(Progression(1, 0), 6, 6) == 1
        # hyper-cuboid value 39 carried by the column-scaled variant triangle
        assert s2_explicit(Progression(3, 2), 3, 1) == 117
        assert s2hat_triangle(Progression(3, 2), 3).entry(3, 1) == 39

    def test_explicit_rejects_above_diagonal(self):
        with pytest.raises(OutOfTriangle):
            s2_explicit(Progression(1, 0), 2, 3)

    def test_from_ordinary(self):
        assert s2_from_ordinary(Progression(2, 1), 2, 1) == 8
        assert s2_from_ordinary(Progression(2, 1), 0, 0) == 1
        for n in range(6):
            for m in range(n + 1):
                assert s2_from_ordinary(Progression(1, 0), n, m) == s2_explicit(
                    Progression(1, 0), n, m
                )

    def test_ordinary_recovered_from_general(self):
        assert s2_ordinary_from_general(Progression(2, 1), 3, 2) == 3
        assert s2_ordinary_from_general(Progression(2, 1), 1, 1) == 1
        assert s2_ordinary_from_general(Progression(3, 2), 2, 1) == 1

    def test_recovery_rejects_zero_offset(self):
        with pytest.raises(DomainError):
            s2_ordinary_from_general(Progression(2, 0), 2, 1)

    def test_four_route_agreement(self, identity):
        identity("s2: four routes agree (recurrence, alternating sum, via ordinary, Sheffer)")


class TestSecondKindGeneratingFunctions:
    def test_column_ogf_product(self):
        for prog in (Progression(2, 1), Progression(3, 2), Progression(1, 0)):
            tri = s2_triangle(prog, 10)
            for m in range(7):
                ogf = Fps.one(10)
                for j in range(m + 1):
                    ogf = ogf * Fps([1, -prog.term(j)], order=10).reciprocal()
                ogf = ogf.shifted_up(m) * F(prog.d) ** m
                for n in range(11):
                    assert ogf[n] == tri.entry(n, m)

    def test_column_ogf_partial_fractions(self):
        # independent route: residues of the simple poles, then geometric sums
        for prog in (Progression(2, 1), Progression(3, 1)):
            tri = s2_triangle(prog, 9)
            for m in range(6):
                roots = [F(prog.term(j)) for j in range(m + 1)]
                for n in range(m, 10):
                    acc = F(0)
                    for j, rj in enumerate(roots):
                        denom = F(1)
                        for k, rk in enumerate(roots):
                            if k != j:
                                denom *= rj - rk
                        acc += (rj**m / denom) * rj ** (n - m)
                    assert F(prog.d) ** m * acc == tri.entry(n, m)

    def test_column_egf(self):
        prog = Progression(2, 1)
        tri = s2_triangle(prog, 8)
        for m in range(5):
            egf = Fps.exp_of(prog.a, 8)
            for j in range(1, m + 1):
                egf = egf * (Fps.exp_of(prog.d, 8) - 1) / j
            for n in range(m, 9):
                assert egf.coefficient_times_factorial(n) == tri.entry(n, m)

    def test_complete_homogeneous_identity(self):
        for prog in progressions(3):
            scaled = s2hat_triangle(prog, 9)
            s2 = s2_triangle(prog, 9)
            for n in range(10):
                for m in range(n + 1):
                    assert scaled.entry(n, m) == complete_h(Alphabet(prog, m + 1), n - m)
                    assert scaled.entry(n, m) * prog.d**m == s2.entry(n, m)

    def test_s2fac_row_sum_egf(self):
        for prog in (Progression(1, 0), Progression(2, 1)):
            sums = [sum(s2fac_triangle(prog, 10).row(n), F(0)) for n in range(11)]
            lhs = Fps([sums[n] / math.factorial(n) for n in range(11)])
            rhs = Fps.exp_of(prog.a, 10) * (
                Fps.one(10) - (Fps.exp_of(prog.d, 10) - 1)
            ).reciprocal()
            assert lhs == rhs


class TestBasisTransitions:
    def test_monomial_coefficients(self):
        assert monomial_in_fallfac(Progression(1, 0), 2) == [0, 1, 1]
        assert monomial_in_fallfac(Progression(2, 1), 2) == [1, 4, 1]
        assert monomial_in_fallfac(Progression(3, 2), 0) == [1]

    @given(stn.integers(1, 3), stn.integers(0, 3), stn.integers(0, 8))
    def test_expansion_recovers_the_monomial(self, d, a, n):
        prog = Progression(d, a)
        coeffs = monomial_in_fallfac(prog, n)
        acc = Polynomial()
        for m, c in enumerate(coeffs):
            acc = acc + fallfac_poly(prog, m) * c
        assert acc == Polynomial.monomial(n)


class TestS2fac:
    def test_classical_rows(self):
        tri = s2fac_triangle(Progression(1, 0), 3)
        assert int_rows(tri) == [[1], [0, 1], [0, 1, 2], [0, 1, 6, 6]]

    def test_diagonal(self):
        assert s2fac_triangle(Progression(2, 1), 2).entry(2, 2) == 8

    def test_row_zero(self):
        assert int_rows(s2fac_triangle(Progression(3, 1), 0)) == [[1]]

    def test_matches_scaling(self):
        for prog in progressions(3):
            fac = s2fac_triangle(prog, 8)
            base = s2_triangle(prog, 8)
            for n in range(9):
                for m in range(n + 1):
                    assert fac.entry(n, m) == base.entry(n, m) * math.factorial(m)


class TestFirstKindTriangle:
    def test_generalized_rows(self):
        tri = s1phat_triangle(Progression(2, 1), 4)
        assert int_rows(tri)[4] == [105, 176, 86, 16, 1]

    def test_classical_unsigned(self):
        tri = s1phat_triangle(Progression(1, 0), 4)
        assert tri.entry(4, 2) == 11

    def test_column_zero_is_rising_product(self):
        tri = s1phat_triangle(Progression(3, 1), 4)
        assert tri.entry(4, 0) == 280
        for n in range(5):
            assert tri.entry(n, 0) == risefac(Progression(3, 1), 0, n)

    def test_sigma_route(self):
        assert s1phat_from_sigma(Progression(2, 1), 4, 1) == 176
        assert s1phat_from_sigma(Progression(2, 1), 5, 5) == 1
        assert s1phat_from_sigma(Progression(1, 0), 4, 2) == 11

    def test_from_ordinary(self):
        assert s1phat_from_ordinary(Progression(2, 1), 3, 1) == 23
        for n in range(6):
            for m in range(n + 1):
                assert s1phat_from_ordinary(Progression(1, 0), n, m) == s1phat_triangle(
                    Progression(1, 0), n
                ).entry(n, m)
        assert s1phat_from_ordinary(Progression(3, 1), 2, 0) == 4

    def test_ordinary_double_binomial(self):
        assert s1p_ordinary_schlomilch(4, 2) == 11
        assert s1p_ordinary_schlomilch(7, 7) == 1
        assert s1p_ordinary_schlomilch(0, 0) == 1
        assert s1p_ordinary_schlomilch(5, 1) == 24

    def test_triple_sum(self):
        assert s1phat_schlomilch(Progression(2, 1), 4, 1) == 176
        assert s1phat_schlomilch(Progression(5, 0), 3, 1) == 50
        assert s1phat_schlomilch(Progression(2, 1), 6, 6) == 1

    def test_triple_sum_reordered(self):
        assert s1phat_schlomilch_v2(Progression(2, 1), 3, 1) == 23
        for n in range(6):
            assert s1phat_schlomilch_v2(Progression(2, 1), n, 0) == risefac(
                Progression(2, 1), 0, n
            )
        assert s1phat_schlomilch_v2(Progression(1, 0), 4, 2) == 11

    def test_five_route_agreement(self):
        for prog in progressions(3):
            tri = s1phat_triangle(prog, 8)
            for n in range(9):
                for m in range(n + 1):
                    want = tri.entry(n, m)
                    assert s1phat_from_sigma(prog, n, m) == want
                    assert s1phat_from_ordinary(prog, n, m) == want
                    assert s1phat_schlomilch(prog, n, m) == want
                    assert s1phat_schlomilch_v2(prog, n, m) == want


class TestInversePairing:
    def test_group_inverse_identity(self):
        for prog in progressions(4):
            s2 = s2_triangle(prog, 10)
            s1 = s1_triangle(prog, 10)
            assert s2.multiply(s1) == identity_triangle(10)
            assert s1.multiply(s2) == identity_triangle(10)

    def test_signed_inverse_pattern(self):
        for prog in progressions(3):
            s1hat = s1hat_pair(prog, 8).triangle(8)
            s1ph = s1phat_triangle(prog, 8)
            assert s2hat_triangle(prog, 8).inverse() == s1hat
            for n in range(9):
                for m in range(n + 1):
                    assert abs(s1hat.entry(n, m)) == s1ph.entry(n, m)
                    assert s1hat.entry(n, m) == (-1) ** (n - m) * s1ph.entry(n, m)

    def test_unsigned_is_row_scaled(self):
        prog = Progression(2, 1)
        s1p = s1p_triangle(prog, 6)
        s1ph = s1phat_triangle(prog, 6)
        for n in range(7):
            for m in range(n + 1):
                assert s1p.entry(n, m) * F(prog.d) ** n == s1ph.entry(n, m)

    def test_integer_route_matches_sheffer_at_the_row_limit(self):
        prog = Progression(7, 5)
        size = LIMITS["rows"]
        sheffer = s1_pair(prog, size).triangle(size)
        s1 = s1_triangle(prog, size)
        assert s1 == sheffer
        assert s1p_triangle(prog, size) == sheffer.signed()
        assert all(type(c) is Fraction for row in s1.rows for c in row)

    def test_inverse_pair_closed_form(self):
        inv = s2_pair(Progression(2, 1), 6).inverse()
        pair = s1_pair(Progression(2, 1), 6)
        assert inv.g == pair.g and inv.f == pair.f


class TestRowPolynomialIdentities:
    @given(stn.integers(1, 3), stn.integers(0, 3), rationals)
    def test_rising_factorial_rows(self, d, a, x):
        prog = Progression(d, a)
        tri = s1phat_triangle(prog, 8)
        for n in range(9):
            assert tri.row_polynomial(n).evaluate(x) == risefac(prog, x, n)

    @given(stn.integers(1, 3), stn.integers(0, 3), rationals)
    def test_falling_factorial_rows(self, d, a, x):
        prog = Progression(d, a)
        tri = s1hat_pair(prog, 8).triangle(8)
        for n in range(9):
            assert tri.row_polynomial(n).evaluate(x) == fallfac(prog, x, n)

    def test_forward_shift_recurrence(self):
        for prog in progressions(3):
            tri = s1phat_triangle(prog, 10)
            for n in range(1, 11):
                stepped = Polynomial([prog.a, 1]) * tri.row_polynomial(n - 1).shifted(prog.d)
                assert stepped == tri.row_polynomial(n)

    def test_factorial_lowering_recurrence(self):
        for prog in progressions(3):
            tri = s1phat_triangle(prog, 8)
            for n in range(1, 9):
                acc = Polynomial()
                deriv = tri.row_polynomial(n)
                for k in range(1, n + 1):
                    deriv = deriv.derivative()
                    sign = 1 if (k - 1) % 2 == 0 else -1
                    acc = acc + deriv * F(sign * prog.d ** (k - 1), math.factorial(k))
                assert acc == n * tri.row_polynomial(n - 1)

    def test_log_lowering_recurrence_for_s2_rows(self):
        for prog in progressions(3):
            tri = s2_triangle(prog, 8)
            for n in range(1, 9):
                acc = Polynomial()
                deriv = tri.row_polynomial(n)
                for k in range(1, n + 1):
                    deriv = deriv.derivative()
                    sign = 1 if (k + 1) % 2 == 0 else -1
                    acc = acc + deriv * F(sign, k)
                assert acc * F(1, prog.d) == n * tri.row_polynomial(n - 1)

    def test_s2_row_operator_step(self):
        for prog in progressions(3):
            tri = s2_triangle(prog, 8)
            x = Polynomial.x()
            for n in range(1, 9):
                p = tri.row_polynomial(n - 1)
                stepped = prog.a * p + prog.d * x * p + prog.d * x * p.derivative()
                assert stepped == tri.row_polynomial(n)

    @given(stn.integers(1, 3), stn.integers(0, 3), rationals)
    def test_fallfac_egf(self, d, a, x):
        prog = Progression(d, a)
        values = [fallfac(prog, x, m) for m in range(11)]
        lhs = Fps([values[m] / math.factorial(m) for m in range(11)])
        assert lhs == Fps([1, d], order=10).pow(F(x - a, 1) / d)

    @given(stn.integers(1, 3), stn.integers(0, 3), rationals)
    def test_first_kind_bivariate_egf(self, d, a, x):
        prog = Progression(d, a)
        tri = s1phat_triangle(prog, 10)
        rows = [tri.row_polynomial(n).evaluate(x) for n in range(11)]
        lhs = Fps([rows[n] / math.factorial(n) for n in range(11)])
        assert lhs == Fps([1, -d], order=10).pow(-(F(a) + x) / d)
