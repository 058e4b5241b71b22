import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as stn

from apsums.bernoulli import (
    b_d_numbers,
    b_d_poly,
    b_d_poly_rows,
    b_gen,
    b_gen_poly,
    b_gen_poly_rows,
    b_gen_poly_via_ordinary,
    b_gen_numbers,
    bernoulli_numbers,
)
from apsums.cli import LIMITS
from apsums.errors import DomainError
from apsums.exact import Progression
from apsums.poly import Polynomial
from apsums.stirling import s2_triangle
from apsums.verification import _b_d_poly_egf_violation, _b_gen_parity_violation, _b_gen_poly_egf_violation

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

    def test_first_thirteen(self, identity):
        identity("bernoulli: recursion reproduces the canonical first thirteen numbers")

    def test_negative_rejected(self):
        with pytest.raises(DomainError):
            bernoulli_numbers(-1)


class TestPolynomials:
    def test_linear(self):
        assert b_d_poly(1, 1) == Polynomial([F(-1, 2), 1])

    def test_constant(self):
        assert b_d_poly(1, 0) == Polynomial([1])

    def test_telescoping_difference(self):
        # B(2, x+1) - B(2, x) = 2x, checked at x = 0
        p = b_d_poly(1, 2)
        assert p.evaluate(1) - p.evaluate(0) == 0

    def test_telescoping_generally(self):
        for n in range(1, 8):
            p = b_d_poly(1, n)
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

    @pytest.mark.parametrize("prog", [Progression(1, 0), Progression(2, 1), Progression(7, 5),
                                      Progression(2**64 - 1, 2**64 - 1)])
    def test_int_sum_equals_the_fraction_sum(self, prog):
        for n in range(31):
            row = s2_triangle(prog, n).row(n)
            want = sum((F((-1) ** m * c * math.factorial(m), m + 1) for m, c in enumerate(row)), F(0))
            assert b_gen(prog, n) == want, n

    def test_routes_agree(self):
        for d in range(1, 5):
            for a in range(d + 1):
                prog = Progression(d, a)
                for n in range(11):
                    assert b_gen(prog, n) == b_gen_numbers(prog, n)[n]

    def test_parity_relation(self):
        for d in range(2, 6):
            for a in range(1, d):
                assert _b_gen_parity_violation(d, a, 12) is None


class TestTwoParameterPolynomials:
    def test_reduction(self, identity):
        identity("bernoulli: two-parameter numbers agree along both routes")

    def test_linear_case(self):
        assert b_gen_poly(Progression(2, 1), 1) == Polynomial([0, 1])

    def test_one_parameter_specialization(self):
        assert b_gen_poly(Progression(2, 0), 3) == Polynomial([0, 2, -3, 1])

    def test_both_routes_agree(self, identity):
        identity("bernoulli: polynomial routes (convolve numbers vs shifted powers) agree")

    @pytest.mark.parametrize("prog", [Progression(7, 5), Progression(2**64 - 1, 2**64 - 1)])
    def test_both_routes_agree_at_the_input_limit(self, prog):
        n = LIMITS["bernoulli"]
        assert b_gen_poly_via_ordinary(prog, n) == b_gen_poly(prog, n)


class TestPolynomialRows:
    """The rows over one number list equal the single-row builders."""

    @pytest.mark.parametrize("prog", [Progression(1, 0), Progression(2, 1), Progression(7, 5),
                                      Progression(2**64 - 1, 2**64 - 1)])
    def test_two_parameter_rows(self, prog):
        rows = b_gen_poly_rows(prog, 12)
        assert len(rows) == 13
        for n, row in enumerate(rows):
            assert row == b_gen_poly(prog, n)

    @pytest.mark.parametrize("d", [1, 2, 5, 2**64 - 1])
    def test_one_parameter_rows(self, d):
        rows = b_d_poly_rows(d, 12)
        assert len(rows) == 13
        for n, row in enumerate(rows):
            assert row == b_d_poly(d, n)

    def test_rows_at_the_input_limit(self):
        n = LIMITS["bernoulli"]
        assert b_gen_poly_rows(Progression(7, 5), n)[n] == b_gen_poly(Progression(7, 5), n)
        assert b_d_poly_rows(3, n)[n] == b_d_poly(3, n)

    def test_domain(self):
        with pytest.raises(DomainError):
            b_gen_poly_rows(Progression(2, 1), -1)
        with pytest.raises(DomainError):
            b_d_poly_rows(2, -1)
        with pytest.raises(DomainError):
            b_d_poly_rows(0, 3)


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
    def test_number_egf(self, identity):
        identity("bernoulli: number e.g.f. equals d t e^(at) / (e^(dt) - 1)")

    @given(stn.fractions(min_value=-4, max_value=4, max_denominator=9))
    def test_bivariate_egf(self, x):
        for prog in (Progression(2, 1), Progression(3, 2)):
            assert _b_gen_poly_egf_violation(prog, [x], 10) is None

    @given(stn.fractions(min_value=-4, max_value=4, max_denominator=9))
    def test_one_parameter_bivariate_egf(self, x):
        for d in (1, 2, 3, 4):
            assert _b_d_poly_egf_violation(d, [x], 10) is None
