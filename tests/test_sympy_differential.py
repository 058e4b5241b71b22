"""Differential tests against sympy at the classical point d=1, a=0.

sympy is not a runtime dependency, so the module is skipped without it.
sympy 1.14 defines bernoulli(1) = +1/2; this package keeps
B(1) = -1/2, so the comparison flips that one sign instead of changing
either convention.
"""

from fractions import Fraction

import math

import pytest

from apsums import bernoulli as bern
from apsums import powersum as ps
from apsums import stirling as st
from apsums.exact import Progression

numbers = pytest.importorskip("sympy.functions.combinatorial.numbers")

CLASSICAL = Progression(1, 0)
SIZE = 20


def as_fraction(rational) -> Fraction:
    return Fraction(int(rational.p), int(rational.q))


def sympy_bernoulli_number(n: int) -> Fraction:
    value = as_fraction(numbers.bernoulli(n))
    return -value if n == 1 else value


def test_second_kind_stirling():
    tri = st.s2_triangle(CLASSICAL, SIZE)
    for n in range(SIZE + 1):
        for m in range(n + 1):
            assert tri.entry(n, m) == int(numbers.stirling(n, m, kind=2)), (n, m)


def test_first_kind_stirling_signed_and_unsigned():
    signed = st.s1_triangle(CLASSICAL, SIZE)
    unsigned = st.s1p_triangle(CLASSICAL, SIZE)
    for n in range(SIZE + 1):
        for m in range(n + 1):
            assert signed.entry(n, m) == int(numbers.stirling(n, m, kind=1, signed=True)), (n, m)
            assert unsigned.entry(n, m) == int(numbers.stirling(n, m, kind=1)), (n, m)


def test_bernoulli_numbers():
    expected = [sympy_bernoulli_number(n) for n in range(SIZE + 1)]
    assert expected[1] == Fraction(-1, 2)
    assert bern.bernoulli_numbers(SIZE) == expected
    assert bern.b_d_numbers(1, SIZE) == expected
    assert bern.b_gen_numbers(CLASSICAL, SIZE) == expected


def test_bernoulli_numbers_at_the_largest_table():
    # index 61 is the table ps_via_ordinary builds at n = 60
    assert bern.bernoulli_numbers(61) == [sympy_bernoulli_number(n) for n in range(62)]


def binomial_expansion(d: int, a: int, n_max: int) -> list[Fraction]:
    """B(d,a;n) = sum_m C(n,m) a^(n-m) d^m B(m) over sympy's numbers."""
    ordinary = [sympy_bernoulli_number(m) for m in range(n_max + 1)]
    return [
        sum(math.comb(n, m) * a ** (n - m) * d**m * ordinary[m] for m in range(n + 1))
        for n in range(n_max + 1)
    ]


def test_one_parameter_numbers_at_the_limit():
    assert bern.b_d_numbers(7, 60) == binomial_expansion(7, 0, 60)


def test_two_parameter_numbers_at_the_limit():
    assert bern.b_gen_numbers(Progression(7, 5), 60) == binomial_expansion(7, 5, 60)


@pytest.mark.parametrize("method", ps.METHOD_NAMES)
def test_faulhaber_sums(method):
    # sum_{k=0}^{m} k^n = (B_{n+1}(m+1) - B_{n+1}(0)) / (n+1), with 0^0 = 1
    for n in range(9):
        for m in range(13):
            closed = (numbers.bernoulli(n + 1, m + 1) - numbers.bernoulli(n + 1, 0)) / (n + 1)
            assert ps.evaluate_method(method, CLASSICAL, n, m) == as_fraction(closed), (n, m)
