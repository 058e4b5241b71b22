import math
from fractions import Fraction

import pytest
from hypothesis import example, given
from hypothesis import strategies as stn

from apsums.errors import DomainError
from apsums.exact import Progression, risefac
from apsums.fps import Fps, reverse_coefficient_lagrange
from apsums.verification import (
    _exp_log_pow_violation,
    _factorial_transform_violation,
    _reversion_violation,
    _ring_law_violation,
)

F = Fraction

rationals = stn.fractions(min_value=-6, max_value=6, max_denominator=20)


def series(order, unit_constant=False, reversible=False):
    """Strategy producing random series with the requested shape."""

    def build(coeffs):
        if unit_constant:
            coeffs = [F(1)] + coeffs[1:]
        if reversible:
            first = coeffs[1] if coeffs[1] != 0 else F(1)
            coeffs = [F(0), first] + coeffs[2:]
        return Fps(coeffs)

    return stn.lists(rationals, min_size=order + 1, max_size=order + 1).map(build)


class TestConstruction:
    def test_pad_and_truncate(self):
        assert Fps([1, 2], order=4).coefficients == (F(1), F(2), F(0), F(0), F(0))
        assert Fps([1, 2, 3, 4], order=1).coefficients == (F(1), F(2))

    def test_trailing_zeros_are_kept(self):
        f = Fps([1, 0, 0])
        assert f.order == 2
        assert f != Fps([1])

    def test_coefficient_beyond_order(self):
        with pytest.raises(DomainError, match="coefficient 5 beyond retained order 1"):
            Fps([1, 2])[5]

    def test_truncated_cannot_extend(self):
        with pytest.raises(DomainError, match="cannot extend a series of order 1 to order 3"):
            Fps([1, 2]).truncated(3)

    def test_text_form(self):
        assert str(Fps([1, 1, F(1, 2)])) == "1 + 1*t + 1/2*t^2 ; order=2"
        assert str(Fps([F(-1, 2)])) == "-1/2 ; order=0"


class TestMul:
    def test_difference_of_squares(self):
        assert Fps([1, 1], order=2) * Fps([1, -1], order=2) == Fps([1, 0, -1])

    def test_exp_times_exp(self):
        product = Fps.exp_of(1, 3) * Fps.exp_of(1, 3)
        assert product == Fps([1, 2, 2, F(4, 3)])
        assert product == Fps.exp_of(2, 3)

    def test_one_is_neutral(self):
        f = Fps([3, -1, F(2, 7)])
        assert f * Fps.one(2) == f

    def test_truncates_to_smaller_order(self):
        f = Fps([1, 1, 1, 1, 1])
        g = Fps([1, 1])
        assert (f * g).order == 1


class TestReciprocal:
    def test_geometric(self):
        assert Fps([1, -1], order=3).reciprocal() == Fps([1, 1, 1, 1])

    def test_constant(self):
        assert Fps.constant(2, 2).reciprocal() == Fps.constant(F(1, 2), 2)

    def test_ratio_two(self):
        assert Fps([1, -2], order=2).reciprocal() == Fps([1, 2, 4])

    def test_zero_constant_rejected(self):
        with pytest.raises(DomainError, match="zero constant term has no reciprocal"):
            Fps([0, 1]).reciprocal()

    @pytest.mark.parametrize("divisor", [0, F(0)])
    def test_division_by_zero_rejected(self, divisor):
        with pytest.raises(DomainError, match="division of a series by zero"):
            Fps([1, 2]) / divisor


class TestCompose:
    def test_exp_after_log(self):
        outer = Fps.exp_of(1, 4)
        inner = Fps([1, 1], order=4).log()
        assert outer.compose(inner) == Fps([1, 1, 0, 0, 0])

    def test_geometric_of_mobius(self):
        outer = Fps.geometric(1, 3)
        inner = Fps.x(3) * Fps([1, -1], order=3).reciprocal()
        assert outer.compose(inner) == Fps([1, 1, 2, 4])

    def test_zero_inner_gives_constant(self):
        f = Fps([5, 7, 11])
        assert f.compose(Fps.zero(2)) == Fps.constant(5, 2)

    def test_nonzero_inner_constant_rejected(self):
        with pytest.raises(DomainError, match="inner series must have zero constant term"):
            Fps([1, 1]).compose(Fps([1, 1]))


class TestReverse:
    def test_exp_minus_one(self):
        f = Fps.exp_of(1, 5) - 1
        assert f.reverse() == Fps([1, 1], order=5).log()

    def test_identity_fixed_point(self):
        assert Fps.x(6).reverse() == Fps.x(6)

    def test_mobius(self):
        f = Fps.x(5) * Fps([1, 1], order=5).reciprocal()  # t/(1+t)
        expected = Fps.x(5) * Fps([1, -1], order=5).reciprocal()  # t/(1-t)
        assert f.reverse() == expected

    def test_preconditions(self):
        with pytest.raises(DomainError, match="reversion needs c0 = 0 and c1 != 0"):
            Fps([1, 1]).reverse()
        with pytest.raises(DomainError, match="reversion needs c0 = 0 and c1 != 0"):
            Fps([0, 0, 1]).reverse()
        with pytest.raises(DomainError, match="reversion needs c0 = 0 and c1 != 0"):
            Fps([0]).reverse()

    @given(series(10, reversible=True))
    def test_reversion_law(self, f):
        assert _reversion_violation(f) is None

    def test_lagrange_higher_powers(self):
        f = Fps.exp_of(1, 8) - 1
        g = f.reverse()
        for k in range(4):
            power = Fps.one(8)
            for _ in range(k):
                power = power * g
            for n in range(9):
                expected = power[n] * F(math.factorial(n), math.factorial(k))
                assert reverse_coefficient_lagrange(f, n, k) == expected


class TestLogExpPow:
    def test_mercator(self):
        assert Fps([1, 1], order=3).log() == Fps([0, 1, F(-1, 2), F(1, 3)])

    def test_log_of_one(self):
        assert Fps.one(4).log() == Fps.zero(4)

    def test_log_ratio_two(self):
        assert Fps([1, -2], order=2).log() == Fps([0, -2, -2])

    def test_log_precondition(self):
        with pytest.raises(DomainError, match="series logarithm needs constant term 1"):
            Fps([2, 1]).log()

    def test_exp_of_t(self):
        assert Fps.x(3).exp() == Fps([1, 1, F(1, 2), F(1, 6)])

    def test_exp_of_zero(self):
        assert Fps.zero(3).exp() == Fps.one(3)

    def test_exp_of_two_t(self):
        assert Fps([0, 2], order=2).exp() == Fps([1, 2, 2])

    def test_exp_precondition(self):
        with pytest.raises(DomainError, match="series exponential needs constant term 0"):
            Fps([1, 1]).exp()

    def test_binomial_series(self):
        assert Fps([1, -2], order=3).pow(F(-1, 2)) == Fps([1, 1, F(3, 2), F(5, 2)])

    def test_pow_zero(self):
        f = Fps([1, 5, -3])
        assert f.pow(0) == Fps.one(2)

    def test_pow_matches_rising_factorial_egf(self):
        # n! [t^n] (1-2t)^(-1/2) generates the [2,1] rising factorials at 0
        f = Fps([1, -2], order=5).pow(F(-1, 2))
        prog = Progression(2, 1)
        for n in range(6):
            assert f.coefficient_times_factorial(n) == risefac(prog, 0, n)

    def test_pow_precondition(self):
        with pytest.raises(DomainError, match="fractional power needs constant term 1"):
            Fps([2, 1]).pow(F(1, 2))

    @given(series(10, unit_constant=True), rationals, rationals)
    def test_exp_log_pow_law(self, f, p, q):
        assert _exp_log_pow_violation(f, p, q) is None


class TestCalculusAndBorel:
    def test_derivative(self):
        assert Fps([0, 0, 1]).derivative() == Fps([0, 2])

    def test_integral_matches_log_route(self):
        geom = Fps.geometric(1, 2)
        assert geom.integral() == Fps([0, 1, F(1, 2), F(1, 3)])

    def test_integral_then_derivative(self):
        f = Fps([5, 1, F(3, 7), -2])
        assert f.integral().derivative() == f

    def test_derivative_then_integral_drops_constant(self):
        f = Fps([5, 1, F(3, 7)])
        assert f.derivative().integral() == f - 5

    def test_derivative_of_constant_order_series(self):
        with pytest.raises(DomainError, match="derivative of an order-0 series retains no coefficients"):
            Fps([3]).derivative()

    def test_factorial_transforms(self):
        assert Fps.geometric(1, 4).ogf_to_egf() == Fps.exp_of(1, 4)
        assert Fps.exp_of(2, 4).egf_to_ogf() == Fps.geometric(2, 4)

    @given(series(9))
    def test_transform_roundtrip(self, f):
        assert _factorial_transform_violation(f) is None


class TestRingLaws:
    @given(series(16), series(16), series(16))
    def test_mul_laws(self, f, g, h):
        assert _ring_law_violation(f, g, h) is None

    @given(series(10))
    def test_additive_group(self, f):
        assert f + (-f) == Fps.zero(10)
        assert f - f == Fps.zero(10)


# Schoolbook Fraction references for the integer kernels; they share no code with src.
LARGE_PRIMES = (1_000_003, 998_244_353, 2**61 - 1, 2**89 - 1)
coefficient = stn.one_of(
    stn.just(F(0)),
    stn.fractions(min_value=-9, max_value=9, max_denominator=12),
    stn.builds(F, stn.integers(-(10**30), 10**30), stn.sampled_from(LARGE_PRIMES)),
)
scalar = stn.one_of(coefficient, stn.integers(-(10**20), 10**20))
# runs of zeros between single coefficients
chunk = stn.one_of(coefficient.map(lambda c: [c]), stn.integers(1, 5).map(lambda n: [F(0)] * n))


def coefficient_lists(max_size):
    return stn.lists(chunk, min_size=1, max_size=max_size).map(lambda cs: sum(cs, [])[:max_size])


def schoolbook_mul(a, b, order):
    out = [F(0)] * (order + 1)
    for i in range(order + 1):
        for j in range(order + 1 - i):
            out[i + j] += a[i] * b[j]
    return out


def schoolbook_reciprocal(f):
    out = [1 / f[0]]
    for k in range(1, len(f)):
        out.append(-sum(f[j] * out[k - j] for j in range(1, k + 1)) / f[0])
    return out


def schoolbook_power_sum(outer, inner, order, weight):
    """sum_k weight(k) * outer[k] * inner^k, truncated; inner[0] must be 0."""
    out, power = [F(0)] * (order + 1), [F(1)] + [F(0)] * order
    for k in range(order + 1):
        out = [o + weight(k) * outer[k] * p for o, p in zip(out, power)]
        power = schoolbook_mul(power, inner, order)
    return out


def schoolbook_reverse(f):
    """g with f(g) = t, one coefficient at a time: once g_n is set to 0,
    [t^n] f(g) holds every term but f_1 g_n; f[0] must be 0 and f[1] nonzero."""
    order = len(f) - 1
    g = [F(0)] * (order + 1)
    g[1] = 1 / f[1]
    for n in range(2, order + 1):
        g[n] = -schoolbook_power_sum(f, g, order, lambda k: 1)[n] / f[1]
    return g


def exact_fractions(f):
    return all(type(c) is Fraction for c in f.coefficients)


class TestIntegerKernelsAgainstSchoolbook:
    @given(coefficient_lists(12), coefficient_lists(12))
    def test_product(self, a, b):
        product = Fps(a) * Fps(b)
        order = min(len(a), len(b)) - 1
        assert product.coefficients == tuple(schoolbook_mul(a, b, order))
        assert exact_fractions(product)

    @given(coefficient.filter(bool), coefficient_lists(10))
    @example(F(-3), [F(1), F(0), F(0), F(-5, 2)])
    @example(F(7, 2**61 - 1), [F(0), F(0), F(1)])
    def test_reciprocal(self, c0, rest):
        inverse = Fps([c0] + rest).reciprocal()
        assert inverse.coefficients == tuple(schoolbook_reciprocal([c0] + rest))
        assert exact_fractions(inverse)

    @given(coefficient_lists(9), coefficient_lists(9))
    def test_compose(self, outer, rest):
        inner = [F(0)] + rest
        order = min(len(outer), len(inner)) - 1
        composed = Fps(outer).compose(Fps(inner))
        expected = schoolbook_power_sum(outer + [F(0)] * order, inner, order, lambda k: 1)
        assert composed.coefficients == tuple(expected)
        assert exact_fractions(composed)

    @given(coefficient_lists(9), rationals)
    @example([F(-4), F(0), F(0)], F(-1, 2))
    def test_pow(self, rest, exponent):
        inner = [F(0)] + rest
        order = len(inner) - 1
        # (1 + g)^e = sum_m C(e, m) g^m once g(0) = 0
        binomials = [F(1)]
        for m in range(order):
            binomials.append(binomials[-1] * (exponent - m) / (m + 1))
        expected = schoolbook_power_sum(binomials, inner, order, lambda m: 1)
        result = Fps([F(1)] + rest).pow(exponent)
        assert result.coefficients == tuple(expected)
        assert exact_fractions(result)

    @given(coefficient_lists(9))
    def test_exp(self, rest):
        inner = [F(0)] + rest
        order = len(inner) - 1
        # exp(f) = sum_m f^m / m! once f(0) = 0
        expected = schoolbook_power_sum([F(1)] * (order + 1), inner, order,
                                        lambda m: F(1, math.factorial(m)))
        result = Fps(inner).exp()
        assert result.coefficients == tuple(expected)
        assert exact_fractions(result)

    @given(coefficient_lists(12), coefficient_lists(12))
    def test_sum_and_difference(self, a, b):
        total, difference = Fps(a) + Fps(b), Fps(a) - Fps(b)
        assert total.coefficients == tuple(x + y for x, y in zip(a, b))
        assert difference.coefficients == tuple(x - y for x, y in zip(a, b))
        assert (-Fps(a)).coefficients == tuple(-x for x in a)
        assert exact_fractions(total) and exact_fractions(difference)

    @given(coefficient_lists(12), scalar)
    def test_scalar_operations(self, a, c):
        f = Fps(a)
        assert (f + c).coefficients == (a[0] + c, *a[1:])
        assert (c - f).coefficients == (c - a[0], *(-x for x in a[1:]))
        assert f.scale(c).coefficients == tuple(x * c for x in a)
        assert (c * f).coefficients == tuple(x * c for x in a)
        if c:
            assert (f / c).coefficients == tuple(x / c for x in a)
        assert exact_fractions(f + c) and exact_fractions(f.scale(c))

    @given(coefficient_lists(12), stn.integers(0, 14))
    def test_shifts(self, a, k):
        up = Fps(a).shifted_up(k)
        assert up.coefficients == tuple(([F(0)] * k + a)[: len(a)])
        down = Fps([F(0)] * k + a).shifted_down(k)
        assert down.coefficients == tuple(a)
        assert exact_fractions(up) and exact_fractions(down)

    @given(coefficient_lists(12), stn.integers(0, 11))
    def test_truncated(self, a, k):
        k = min(k, len(a) - 1)
        assert Fps(a).truncated(k).coefficients == tuple(a[: k + 1])
        assert exact_fractions(Fps(a).truncated(k))

    @given(coefficient, coefficient_lists(11))
    def test_derivative(self, c0, rest):
        a = [c0] + rest
        derivative = Fps(a).derivative()
        assert derivative.coefficients == tuple(k * a[k] for k in range(1, len(a)))
        assert exact_fractions(derivative)

    @given(coefficient_lists(12))
    def test_integral(self, a):
        integral = Fps(a).integral()
        assert integral.coefficients == (F(0), *(c / (k + 1) for k, c in enumerate(a)))
        assert exact_fractions(integral)

    @given(coefficient_lists(12))
    def test_factorial_transforms(self, a):
        egf, ogf = Fps(a).ogf_to_egf(), Fps(a).egf_to_ogf()
        assert egf.coefficients == tuple(c / math.factorial(n) for n, c in enumerate(a))
        assert ogf.coefficients == tuple(c * math.factorial(n) for n, c in enumerate(a))
        assert exact_fractions(egf) and exact_fractions(ogf)

    @given(scalar, stn.integers(0, 12))
    def test_exp_of_and_geometric(self, rate, order):
        powers = [F(rate) ** n for n in range(order + 1)]
        assert Fps.geometric(rate, order).coefficients == tuple(powers)
        assert Fps.exp_of(rate, order).coefficients == tuple(c / math.factorial(n) for n, c in enumerate(powers))

    @given(coefficient.filter(bool), coefficient_lists(7))
    @example(F(1), [F(1)])
    @example(F(-2, 3), [F(0), F(0), F(5, 2**61 - 1)])
    def test_reverse(self, c1, rest):
        f = [F(0), c1] + rest
        inverse = Fps(f).reverse()
        assert inverse.coefficients == tuple(schoolbook_reverse(f))
        assert exact_fractions(inverse)


class TestCanonicalForm:
    """Equal values built along different routes hold one pair: equal and equally hashed."""

    @staticmethod
    def same(f, g):
        return f == g and hash(f) == hash(g)

    def test_int_and_fraction_input(self):
        assert self.same(Fps([1, 2], order=3), Fps([F(1), F(2), F(0)], order=3))
        assert self.same(Fps([F(4, 2), -3]), Fps([2, F(-6, 2)]))
        assert self.same(Fps.zero(2), Fps([F(0), 0, F(0, 5)]))

    def test_constructor_and_kernels(self):
        assert self.same(Fps([1, 1], order=2) * Fps([1, -1], order=2), Fps([1, 0, -1]))
        assert self.same(Fps([2, 4], order=3).scale(F(1, 2)), Fps([1, 2], order=3))
        assert self.same(Fps([F(1, 3), F(2, 3)]) * 3, Fps([1, 2]))
        assert self.same(Fps([F(1, 2), F(1, 2)]) + Fps([F(1, 2), F(-1, 2)]), Fps([1, 0]))
        assert self.same(Fps([0, 2], order=3).shifted_down(1), Fps([2, 0, 0]))

    @given(coefficient_lists(9), coefficient.filter(bool))
    def test_round_trips(self, a, c):
        f = Fps(a)
        assert self.same(f.scale(c).scale(1 / c), f)
        assert self.same((f + c) - c, f)
        assert self.same(f.ogf_to_egf().egf_to_ogf(), f)

    @pytest.mark.parametrize("build", [
        lambda: Fps([1, 2, 3]), lambda: Fps([1, 2]) * Fps([3, 4]), lambda: Fps([0, 2]).reverse(),
        lambda: Fps([1, F(1, 2)]).pow(3), lambda: Fps([F(1, 3), F(-5, 6)]) / 4,
    ])
    def test_public_values_are_fractions(self, build):
        f = build()
        values = [f[k] for k in range(f.order + 1)]
        scaled = [f.coefficient_times_factorial(k) for k in range(f.order + 1)]
        assert all(type(c) is Fraction for c in [*values, *scaled, *f.coefficients])
        assert values == list(f.coefficients)
        assert scaled == [math.factorial(k) * c for k, c in enumerate(f.coefficients)]

    def test_fraction_input_is_kept(self):
        coeffs = [F(1, 3), F(0), F(-7, 2)]
        f = Fps(coeffs)
        assert str(f) == "1/3 + 0*t + -7/2*t^2 ; order=2"
        assert f.coefficients == tuple(coeffs)


class TestExactScalarsOnly:
    @pytest.mark.parametrize("bad", [0.1, "1/3", True, None])
    def test_coefficients(self, bad):
        with pytest.raises(DomainError):
            Fps([1, bad])

    def test_integer_coefficients_become_fractions(self):
        assert exact_fractions(Fps([1, -2, F(3, 4)], order=4))

    @pytest.mark.parametrize("bad", [0.5, "2", False])
    def test_scalar_entry_points(self, bad):
        for call in (
            lambda: Fps.exp_of(bad, 3),
            lambda: Fps.geometric(bad, 3),
            lambda: Fps([1, 1]).scale(bad),
            lambda: Fps([1, 1]).pow(bad),
        ):
            with pytest.raises(DomainError):
                call()

    @pytest.mark.parametrize("bad", [0.5, True])
    def test_scalar_operands(self, bad):
        f = Fps([1, 1])
        for call in (lambda: f + bad, lambda: bad + f, lambda: f - bad, lambda: f * bad,
                     lambda: bad * f, lambda: f / bad):
            with pytest.raises(DomainError):
                call()
