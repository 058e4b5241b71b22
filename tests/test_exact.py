import copy
import math
import pickle
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as stn

from apsums.errors import DomainError
from apsums.exact import (
    Progression,
    binomial_general,
    fallfac,
    integer_power,
    rational_str,
    risefac,
)
from apsums.verification import _factorial_duality_violation

rationals = stn.fractions(min_value=-10, max_value=10, max_denominator=40)


class TestBinomialGeneral:
    def test_small_pascal_value(self):
        assert binomial_general(5, 2) == 10

    def test_negative_lower_index_is_zero(self):
        assert binomial_general(4, -1) == 0
        assert binomial_general(-1, -1) == 0

    def test_negative_upper_index(self):
        # falling-factorial quotient: (-2)(-3)(-4)/3! = -4
        assert binomial_general(-2, 3) == -4

    def test_negative_upper_identity(self):
        for r in range(1, 8):
            for k in range(0, 8):
                assert binomial_general(-r, k) == (-1) ** k * binomial_general(k - 1 + r, k)

    def test_upper_smaller_than_lower(self):
        assert binomial_general(3, 5) == 0

    def test_pascal_rule_from_row_zero(self):
        # C(0, k) = [k == 0] and Pascal's rule fix every C(r, k) for integer r
        # and k >= -1, without the reflection formula the code uses
        assert [binomial_general(0, k) for k in range(-1, 13)] == [0, 1] + [0] * 12
        for r in range(-12, 13):
            for k in range(-1, 13):
                pascal = binomial_general(r - 1, k) + binomial_general(r - 1, k - 1)
                assert binomial_general(r, k) == pascal, (r, k)

    @given(stn.integers(0, 40), stn.integers(0, 40))
    def test_symmetry(self, n, k):
        if k <= n:
            assert binomial_general(n, k) == binomial_general(n, n - k)


class TestFactorialProducts:
    def test_ordinary_falling(self):
        assert fallfac(Progression(1, 0), 4, 2) == 12

    def test_empty_product(self):
        assert fallfac(Progression(3, 2), Fraction(7, 3), 0) == 1
        assert risefac(Progression(3, 2), Fraction(7, 3), 0) == 1

    def test_generalized_falling(self):
        # x - (a + j d) over a+jd = 1, 3, 5
        assert fallfac(Progression(2, 1), 6, 3) == 5 * 3 * 1

    def test_rising_product_one_four_seven_ten(self):
        assert risefac(Progression(3, 1), 0, 4) == 280

    def test_rising_small(self):
        assert risefac(Progression(2, 1), 0, 2) == 3

    @given(rationals, stn.integers(1, 4), stn.integers(0, 4), stn.integers(0, 12))
    def test_duality_and_rescaling_to_unit_step(self, x, d, a, n):
        assert _factorial_duality_violation(Progression(d, a), x, n) is None

    @pytest.mark.parametrize("x", [Fraction(-7, 3), Fraction(5, 2), Fraction(1, 2**64 - 1), Fraction(4)])
    @pytest.mark.parametrize("prog", [Progression(1, 0), Progression(3, 2), Progression(2**64 - 1, 2**64 - 1)])
    def test_products_match_a_fraction_product(self, prog, x):
        falling = rising = Fraction(1)
        for m in range(10):
            products = fallfac(prog, x, m), risefac(prog, x, m)
            assert products == (falling, rising)
            assert all(type(value) is Fraction for value in products)
            falling *= x - (prog.a + m * prog.d)
            rising *= x + (prog.a + m * prog.d)

    def test_negative_length_rejected(self):
        with pytest.raises(DomainError):
            fallfac(Progression(1, 0), 1, -1)
        with pytest.raises(DomainError):
            risefac(Progression(1, 0), 1, -1)

    @pytest.mark.parametrize("x", [0.1, "1/3", True])
    @pytest.mark.parametrize("product", [fallfac, risefac])
    def test_inexact_argument_rejected(self, product, x):
        with pytest.raises(DomainError):
            product(Progression(1, 0), x, 2)


class TestIntegerPower:
    def test_zero_to_the_zero(self):
        assert integer_power(0, 0) == 1

    def test_plain(self):
        assert integer_power(3, 2) == 9

    def test_fraction_base(self):
        assert integer_power(Fraction(-1, 2), 3) == Fraction(-1, 8)

    def test_negative_exponent_rejected(self):
        with pytest.raises(DomainError):
            integer_power(2, -1)

    @pytest.mark.parametrize("base", [0.1, "1/3", True])
    def test_inexact_base_rejected(self, base):
        with pytest.raises(DomainError):
            integer_power(base, 3)


class TestProgression:
    def test_terms(self):
        prog = Progression(3, 2)
        assert [prog.term(j) for j in range(4)] == [2, 5, 8, 11]

    def test_validation(self):
        with pytest.raises(DomainError):
            Progression(0, 0)
        with pytest.raises(DomainError):
            Progression(2, -1)

    @pytest.mark.parametrize("d, a", [(True, False), (True, 0), (1, False), (2, True)])
    def test_bool_is_not_an_integer_parameter(self, d, a):
        with pytest.raises(DomainError):
            Progression(d, a)

    def test_coprimality_not_required(self):
        assert Progression(4, 2).term(1) == 6

    def test_error_texts(self):
        with pytest.raises(DomainError, match=r"^common difference d must be a positive integer, got 0$"):
            Progression(0)
        with pytest.raises(DomainError, match=r"^initial term a must be a non-negative integer, got -1$"):
            Progression(2, a=-1)
        with pytest.raises(DomainError, match=r"got True$"):
            Progression(True)

    def test_repr_and_construction(self):
        assert repr(Progression(2, 1)) == "Progression(d=2, a=1)"
        assert repr(Progression(3)) == "Progression(d=3, a=0)"
        assert Progression(d=2, a=1) == Progression(2, 1)
        assert Progression(a=1, d=2).term(2) == 5
        with pytest.raises(TypeError):
            Progression()
        with pytest.raises(TypeError):
            Progression(1, 0, 0)

    def test_equality_and_hash(self):
        assert Progression(2, 1) == Progression(2, 1)
        assert Progression(2, 1) != Progression(2, 0)
        assert Progression(2, 1) != (2, 1)
        assert hash(Progression(2, 1)) == hash(Progression(2, 1))
        assert len({Progression(2, 1), Progression(2, 1), Progression(1, 2)}) == 2

    def test_frozen(self):
        prog = Progression(2, 1)
        with pytest.raises(AttributeError):
            prog.d = 3
        with pytest.raises(AttributeError):
            prog.extra = 3
        with pytest.raises(AttributeError):
            del prog.a
        assert prog == Progression(2, 1)

    def test_copy_and_pickle_round_trip(self):
        prog = Progression(5, 3)
        assert copy.copy(prog) == copy.deepcopy(prog) == pickle.loads(pickle.dumps(prog)) == prog


class TestScalars:
    def test_rendering(self):
        assert rational_str(Fraction(3, 2)) == "3/2"
        assert rational_str(Fraction(-1, 2)) == "-1/2"
        assert rational_str(Fraction(7)) == "7"
        assert rational_str(0) == "0"

    def test_rendering_of_inputs_that_are_not_exactly_int_or_fraction(self):
        assert rational_str(True) == "1"
        assert rational_str(False) == "0"
        assert rational_str(0.5) == "1/2"

    def test_rendering_of_fractions_is_canonical(self):
        assert rational_str(Fraction(6, -4)) == "-3/2"
        assert rational_str(-Fraction(10, 4)) == "-5/2"
        assert rational_str(Fraction(7)) == "7"
        assert rational_str(Fraction(-14, 2)) == "-7"

    def test_rendering_refuses_an_int_past_the_str_digit_limit(self):
        with pytest.raises(ValueError):
            rational_str(10**4999)
        with pytest.raises(ValueError):
            rational_str(Fraction(10**4999, 3))

    @given(rationals, rationals, rationals)
    def test_arithmetic_chain_stays_normalized(self, x, y, z):
        value = x * y - z
        if y != -1:
            value = value / (1 + y)
        value = value + x
        assert math.gcd(value.numerator, value.denominator) == 1
        assert value.denominator >= 1

    def test_division_by_zero_is_catchable(self):
        with pytest.raises(ZeroDivisionError):
            Fraction(1) / Fraction(0)
