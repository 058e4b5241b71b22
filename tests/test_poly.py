import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as stn

from apsums.errors import DomainError
from apsums.exact import Progression, fallfac, risefac
from apsums.poly import Polynomial, fallfac_poly, risefac_poly

F = Fraction

rationals = stn.fractions(min_value=-8, max_value=8, max_denominator=30)
polys = stn.lists(rationals, min_size=0, max_size=6).map(Polynomial)


class TestBasics:
    def test_trimming_and_degree(self):
        assert Polynomial([1, 2, 0, 0]).degree == 1
        assert Polynomial([]).degree == -1
        assert Polynomial([0, 0]).degree == -1
        assert not Polynomial([0])

    def test_getitem_beyond_degree_is_zero(self):
        assert Polynomial([1, 2])[10] == 0

    def test_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            Polynomial([1])[-1]
        with pytest.raises(DomainError):
            Polynomial.monomial(-2)

    def test_text(self):
        assert str(Polynomial([0, 2, -3, 1])) == "0 + 2*x + -3*x^2 + 1*x^3"
        assert str(Polynomial()) == "0"
        assert str(Polynomial([F(-1, 2), 3])) == "-1/2 + 3*x"

    def test_equality_is_value_equality(self):
        assert Polynomial([1, 0]) == Polynomial([1])


class TestArithmetic:
    def test_product(self):
        # (1 + x)(1 - x) = 1 - x^2
        assert Polynomial([1, 1]) * Polynomial([1, -1]) == Polynomial([1, 0, -1])

    def test_power(self):
        assert Polynomial([1, 1]) ** 3 == Polynomial([1, 3, 3, 1])

    def test_evaluate_horner(self):
        p = Polynomial([F(1, 2), 0, 3])
        assert p.evaluate(F(1, 3)) == F(1, 2) + 3 * F(1, 9)

    def test_derivative(self):
        assert Polynomial([5, 1, 4]).derivative() == Polynomial([1, 8])

    def test_shift(self):
        # (x+2)^2 = x^2 + 4x + 4
        assert Polynomial([0, 0, 1]).shifted(2) == Polynomial([4, 4, 1])

    @given(polys, polys, rationals)
    def test_evaluation_is_a_homomorphism(self, p, q, x):
        assert (p * q).evaluate(x) == p.evaluate(x) * q.evaluate(x)
        assert (p + q).evaluate(x) == p.evaluate(x) + q.evaluate(x)

    @given(polys, rationals, rationals)
    def test_shift_agrees_with_evaluation(self, p, c, x):
        assert p.shifted(c).evaluate(x) == p.evaluate(x + c)


class TestFactorialBasis:
    @given(stn.integers(1, 3), stn.integers(0, 3), stn.integers(0, 6), rationals)
    def test_polynomials_match_evaluators(self, d, a, m, x):
        prog = Progression(d, a)
        assert fallfac_poly(prog, m).evaluate(x) == fallfac(prog, x, m)
        assert risefac_poly(prog, m).evaluate(x) == risefac(prog, x, m)

    def test_monic_of_right_degree(self):
        p = fallfac_poly(Progression(2, 1), 4)
        assert p.degree == 4
        assert p[4] == 1


LARGE_PRIMES = (1_000_003, 2**61 - 1, 2**89 - 1)
coefficient = stn.one_of(
    stn.just(F(0)),
    rationals,
    stn.builds(F, stn.integers(-(10**30), 10**30), stn.sampled_from(LARGE_PRIMES)),
)


def schoolbook_product(a, b):
    """Fraction reference for the integer product kernel; shares no code with src."""
    out = [F(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


class TestIntegerProductKernel:
    @given(stn.lists(coefficient, max_size=9), stn.lists(coefficient, max_size=9))
    def test_matches_schoolbook(self, a, b):
        product = Polynomial(a) * Polynomial(b)
        assert product == Polynomial(schoolbook_product(a, b))
        assert all(type(c) is Fraction for c in product.coefficients)


def trimmed(coeffs):
    coeffs = list(coeffs)
    while coeffs and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def fractions_only(p):
    return all(type(c) is Fraction for c in p.coefficients)


coefficient_lists = stn.lists(coefficient, max_size=9)
scalar = stn.one_of(coefficient, stn.integers(-(10**20), 10**20))


class TestKernelsAgainstFractionLists:
    """Each operation against a reference on plain Fraction lists; none shares code with src."""

    @given(coefficient_lists, coefficient_lists)
    def test_sum_and_difference(self, a, b):
        size = max(len(a), len(b))
        a0, b0 = a + [F(0)] * (size - len(a)), b + [F(0)] * (size - len(b))
        total, difference = Polynomial(a) + Polynomial(b), Polynomial(a) - Polynomial(b)
        assert total.coefficients == trimmed(x + y for x, y in zip(a0, b0))
        assert difference.coefficients == trimmed(x - y for x, y in zip(a0, b0))
        assert (-Polynomial(a)).coefficients == trimmed(-x for x in a)
        assert fractions_only(total) and fractions_only(difference)

    @given(coefficient_lists, coefficient_lists)
    def test_product(self, a, b):
        product = Polynomial(a) * Polynomial(b)
        assert product.coefficients == trimmed(schoolbook_product(a, b))
        assert fractions_only(product)

    @given(coefficient_lists, scalar)
    def test_scalar_operations(self, a, c):
        p = Polynomial(a)
        assert (p * c).coefficients == trimmed(x * c for x in a)
        assert (c * p).coefficients == trimmed(x * c for x in a)
        assert (p + c).coefficients == trimmed([(a or [F(0)])[0] + c, *a[1:]])
        assert (c - p).coefficients == trimmed([c - (a or [F(0)])[0], *(-x for x in a[1:])])
        assert fractions_only(p * c) and fractions_only(p + c)

    @given(coefficient_lists, scalar)
    def test_evaluate(self, a, x):
        value = Polynomial(a).evaluate(x)
        assert value == sum((c * F(x) ** k for k, c in enumerate(a)), F(0))
        assert type(value) is Fraction

    @given(coefficient_lists)
    def test_derivative(self, a):
        derivative = Polynomial(a).derivative()
        assert derivative.coefficients == trimmed(k * a[k] for k in range(1, len(a)))
        assert fractions_only(derivative)

    @given(coefficient_lists, scalar)
    def test_shifted(self, a, c):
        # p(x + c) has coefficient j = sum_(k >= j) a_k C(k, j) c^(k-j)
        expected = [sum((a[k] * math.comb(k, j) * F(c) ** (k - j) for k in range(j, len(a))), F(0))
                    for j in range(len(a))]
        shifted = Polynomial(a).shifted(c)
        assert shifted.coefficients == trimmed(expected)
        assert fractions_only(shifted)


class TestCanonicalForm:
    """Equal values built along different routes hold one pair: equal and equally hashed."""

    @staticmethod
    def same(p, q):
        return p == q and hash(p) == hash(q)

    def test_int_and_fraction_input(self):
        assert self.same(Polynomial([1, 2]), Polynomial([F(1), F(2), F(0)]))
        assert self.same(Polynomial([F(0), 0]), Polynomial())

    def test_constructor_and_kernels(self):
        assert self.same(Polynomial([F(1, 2), 1]) * Polynomial([2]), Polynomial([1, 2]))
        assert self.same(Polynomial([1, 1]) * Polynomial([1, -1]), Polynomial([1, 0, -1]))
        assert self.same(Polynomial([F(1, 3), F(2, 3)]) * 3, Polynomial([1, 2]))
        assert self.same(Polynomial([F(1, 2), F(1, 2)]) + Polynomial([F(1, 2), F(-1, 2)]), Polynomial([1]))
        assert self.same(Polynomial([0, 0, F(1, 2)]).derivative(), Polynomial([0, 1]))

    @given(coefficient_lists, coefficient.filter(bool))
    def test_round_trips(self, a, c):
        p = Polynomial(a)
        assert self.same(p * c * (1 / c), p)
        assert self.same((p + c) - c, p)
        assert self.same(p.shifted(c).shifted(-c), p)

    @pytest.mark.parametrize("build", [
        lambda: Polynomial([1, 2, 3]), lambda: Polynomial([1, 2]) * Polynomial([3, 4]),
        lambda: Polynomial([1, 1]).shifted(F(2, 3)),
    ])
    def test_public_values_are_fractions(self, build):
        p = build()
        values = [p[k] for k in range(p.degree + 2)]
        assert all(type(c) is Fraction for c in [*values, *p.coefficients])
        assert values == [*p.coefficients, 0]

    def test_fraction_input_is_kept(self):
        coeffs = [F(1, 3), F(0), F(-7, 2)]
        p = Polynomial(coeffs)
        assert str(p) == "1/3 + 0*x + -7/2*x^2"
        assert self.same(p, Polynomial([F(2, 6), 0, F(-7, 2)]))

class TestExactScalarsOnly:
    @pytest.mark.parametrize("coefficients", [[0.5, F(2, 7)], ["2/7"], [1, True]])
    def test_coefficients(self, coefficients):
        with pytest.raises(DomainError):
            Polynomial(coefficients)

    @pytest.mark.parametrize("bad", [0.5, "1", True])
    def test_evaluate_and_shift(self, bad):
        with pytest.raises(DomainError):
            Polynomial([1, 2]).evaluate(bad)
        with pytest.raises(DomainError):
            Polynomial([1, 2]).shifted(bad)

    @pytest.mark.parametrize("bad", [0.5, True])
    def test_scalar_operands(self, bad):
        p = Polynomial([1, 2])
        for call in (lambda: p + bad, lambda: bad + p, lambda: p - bad, lambda: p * bad,
                     lambda: bad * p):
            with pytest.raises(DomainError):
                call()
