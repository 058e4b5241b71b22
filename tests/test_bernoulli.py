import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as stn

from apsums.bernoulli import (
    appell_pair,
    b_d_numbers,
    b_d_poly,
    b_gen,
    b_gen_egf,
    b_gen_poly,
    b_gen_numbers,
    b_gen_poly_via_ordinary,
    bernoulli_numbers,
    bernoulli_poly,
)
from apsums.errors import DomainError
from apsums.exact import Progression
from apsums.fps import Fps
from apsums.poly import Polynomial

F = Fraction

FIRST_13 = [
    F(1), F(-1, 2), F(1, 6), F(0), F(-1, 30), F(0), F(1, 42), F(0),
    F(-1, 30), F(0), F(5, 66), F(0), F(-691, 2730),
]


class TestNumbers:
    def test_base_case(self):
        assert bernoulli_numbers(0) == [F(1)]

    def test_sign_convention(self):
        assert bernoulli_numbers(1)[1] == F(-1, 2)

    def test_small_values(self):
        assert bernoulli_numbers(4) == [F(1), F(-1, 2), F(1, 6), F(0), F(-1, 30)]

    def test_first_thirteen(self):
        assert bernoulli_numbers(12) == FIRST_13

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            bernoulli_numbers(-1)


class TestPolynomials:
    def test_linear(self):
        assert bernoulli_poly(1) == Polynomial([F(-1, 2), 1])

    def test_constant(self):
        assert bernoulli_poly(0) == Polynomial([1])

    def test_telescoping_difference(self):
        # B(2, x+1) - B(2, x) = 2x, checked at x = 0
        p = bernoulli_poly(2)
        assert p.evaluate(1) - p.evaluate(0) == 0

    def test_telescoping_generally(self):
        for n in range(1, 8):
            p = bernoulli_poly(n)
            diff = p.shifted(1) - p
            assert diff == n * Polynomial.monomial(n - 1)


class TestTwoParameterNumbers:
    def test_reduction(self):
        numbers = bernoulli_numbers(10)
        for n in range(11):
            assert b_gen(Progression(1, 0), n) == numbers[n]

    def test_vanishing_first_moment(self):
        assert b_gen(Progression(2, 1), 1) == 0

    def test_small_value(self):
        assert b_gen(Progression(2, 1), 2) == F(-1, 3)

    def test_binomial_route(self):
        assert b_gen_numbers(Progression(2, 1), 2)[2] == F(-1, 3)
        assert b_gen_numbers(Progression(3, 2), 1)[1] == F(1, 2)
        numbers = bernoulli_numbers(8)
        for d in (1, 2, 3):
            for n in range(9):
                assert b_gen_numbers(Progression(d, 0), n)[n] == F(d) ** n * numbers[n]

    def test_routes_agree(self):
        for d in range(1, 5):
            for a in range(d + 1):
                prog = Progression(d, a)
                for n in range(11):
                    assert b_gen(prog, n) == b_gen_numbers(prog, n)[n]

    def test_parity_relation(self):
        for d in range(2, 6):
            for a in range(1, d):
                for n in range(13):
                    lhs = b_gen_numbers(Progression(d, d - a), n)[n]
                    rhs = (-1) ** n * b_gen_numbers(Progression(d, a), n)[n]
                    assert lhs == rhs


class TestTwoParameterPolynomials:
    def test_reduction(self):
        for n in range(8):
            assert b_gen_poly(Progression(1, 0), n) == bernoulli_poly(n)

    def test_linear_case(self):
        assert b_gen_poly(Progression(2, 1), 1) == Polynomial([0, 1])

    def test_one_parameter_specialization(self):
        assert b_gen_poly(Progression(2, 0), 3) == Polynomial([0, 2, -3, 1])

    def test_both_routes_agree(self):
        for d in range(1, 4):
            for a in range(d + 1):
                prog = Progression(d, a)
                for n in range(11):
                    assert b_gen_poly(prog, n) == b_gen_poly_via_ordinary(prog, n)


class TestOneParameterFamily:
    def test_scaling(self):
        assert b_d_numbers(2, 2)[2] == F(2, 3)

    def test_d_one_reduction(self):
        assert b_d_numbers(1, 12) == FIRST_13

    def test_cubic_polynomial(self):
        assert b_d_poly(2, 3) == Polynomial([0, 2, -3, 1])

    def test_value_at_zero(self):
        for d in range(1, 5):
            numbers = b_d_numbers(d, 8)
            for n in range(9):
                assert b_d_poly(d, n).evaluate(0) == numbers[n]

    def test_appell_derivative(self, identity):
        identity("bernoulli: one-parameter polynomials satisfy P' = n P(n-1)")

    def test_a_independence(self, identity):
        identity("bernoulli: the (-a)-convolution contracts to the a-independent numbers")


class TestGeneratingFunctions:
    def test_number_egf(self):
        for d in range(1, 5):
            for a in range(d + 1):
                prog = Progression(d, a)
                values = b_gen_numbers(prog, 12)
                lhs = Fps([values[n] / math.factorial(n) for n in range(13)])
                assert lhs == b_gen_egf(prog, 12)

    @given(stn.fractions(min_value=-4, max_value=4, max_denominator=9))
    def test_bivariate_egf(self, x):
        for prog in (Progression(2, 1), Progression(3, 2)):
            rows = [b_gen_poly(prog, n).evaluate(x) for n in range(11)]
            lhs = Fps([rows[n] / math.factorial(n) for n in range(11)])
            assert lhs == b_gen_egf(prog, 10) * Fps.exp_of(x, 10)

    @given(stn.fractions(min_value=-4, max_value=4, max_denominator=9))
    def test_one_parameter_bivariate_egf(self, x):
        for d in (1, 2, 3, 4):
            rows = [b_d_poly(d, n).evaluate(x) for n in range(11)]
            lhs = Fps([rows[n] / math.factorial(n) for n in range(11)])
            assert lhs == b_gen_egf(Progression(d, 0), 10) * Fps.exp_of(x, 10)

    def test_appell_pair_triangle_rows_are_polynomials(self):
        prog = Progression(2, 1)
        tri = appell_pair(prog, 8).triangle(8)
        for n in range(9):
            assert tri.row_polynomial(n) == b_gen_poly(prog, n)
