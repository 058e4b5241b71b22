"""Bernoulli numbers and polynomials, ordinary and generalized.

The ordinary numbers follow the recursion
B(n) = (delta_{n,0} - sum_{k<n} C(n+1,k) B(k)) / (n+1), which fixes the
convention B(1) = -1/2.  The two-parameter numbers B(d,a;n) arise from an
alternating factorial-weighted sum over the S2[d,a] row, or equivalently
from the binomial a/d expansion of the ordinary numbers.  The
one-parameter family B(d;n) = d^n B(n), whose polynomials drive the
generalized Faulhaber formula, is the a-independent contraction of the
two-parameter one.  Everything is pure and uncached; callers that need
B(d,a;n) for every n up to some bound take the whole list from
:func:`b_gen_numbers`, which builds the ordinary numbers once.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError
from .exact import Progression, integer_power
from .fps import Fps
from .poly import Polynomial
from .sheffer import ShefferPair
from .stirling import s2_triangle

__all__ = [
    "bernoulli_numbers",
    "bernoulli_poly",
    "b_gen",
    "b_gen_numbers",
    "b_gen_poly",
    "b_gen_poly_via_ordinary",
    "b_d_numbers",
    "b_d_poly",
    "b_gen_egf",
    "appell_pair",
]


def bernoulli_numbers(n_max: int) -> list[Fraction]:
    """B(0..n_max) by the defining recursion; B(0) = 1, B(1) = -1/2."""
    if n_max < 0:
        raise DomainError("n_max must be non-negative")
    values: list[Fraction] = []
    for n in range(n_max + 1):
        acc = Fraction(1 if n == 0 else 0)
        for k in range(n):
            acc -= math.comb(n + 1, k) * values[k]
        values.append(acc / (n + 1))
    return values


def bernoulli_poly(n: int) -> Polynomial:
    """B(n, x) = sum_m C(n,m) B(n-m) x^m."""
    if n < 0:
        raise DomainError("degree must be non-negative")
    numbers = bernoulli_numbers(n)
    return Polynomial([math.comb(n, m) * numbers[n - m] for m in range(n + 1)])


def b_gen(prog: Progression, n: int) -> Fraction:
    """Two-parameter number B(d,a;n) = sum_m (-1)^m S2(d,a;n,m) m!/(m+1)."""
    if n < 0:
        raise DomainError("index must be non-negative")
    s2 = s2_triangle(prog, n)
    acc = Fraction(0)
    for m in range(n + 1):
        sign = -1 if m % 2 else 1
        acc += sign * s2.entry(n, m) * Fraction(math.factorial(m), m + 1)
    return acc


def b_gen_numbers(prog: Progression, n_max: int) -> list[Fraction]:
    """B(d,a;0..n_max) by the binomial a/d expansion over one table of B(0..n_max):

    B(d,a;n) = sum_m C(n,m) a^(n-m) d^m B(m).

    >>> print(", ".join(map(str, b_gen_numbers(Progression(2, 1), 4))))
    1, 0, -1/3, 0, 7/15
    """
    if n_max < 0:
        raise DomainError("index must be non-negative")
    numbers = bernoulli_numbers(n_max)
    values = []
    for n in range(n_max + 1):
        acc = Fraction(0)
        for m in range(n + 1):
            acc += math.comb(n, m) * integer_power(prog.a, n - m) * prog.d**m * numbers[m]
        values.append(acc)
    return values


def b_gen_poly(prog: Progression, n: int) -> Polynomial:
    """B(d,a;n,x) = sum_m C(n,m) B(d,a;n-m) x^m."""
    if n < 0:
        raise DomainError("degree must be non-negative")
    values = b_gen_numbers(prog, n)
    return Polynomial([math.comb(n, m) * values[n - m] for m in range(n + 1)])


def b_gen_poly_via_ordinary(prog: Progression, n: int) -> Polynomial:
    """Same polynomial assembled the other way:

    B(d,a;n,x) = sum_m C(n,m) d^m B(m) (a+x)^(n-m).
    """
    if n < 0:
        raise DomainError("degree must be non-negative")
    numbers = bernoulli_numbers(n)
    shifted = Polynomial([prog.a, 1])
    acc = Polynomial()
    for m in range(n + 1):
        coeff = math.comb(n, m) * prog.d**m * numbers[m]
        if coeff != 0:
            acc = acc + shifted ** (n - m) * coeff
    return acc


def b_d_numbers(d: int, n_max: int) -> list[Fraction]:
    """One-parameter numbers B(d;n) = d^n B(n) for n = 0..n_max."""
    if d < 1:
        raise DomainError("d must be a positive integer")
    return [Fraction(d) ** n * b for n, b in enumerate(bernoulli_numbers(n_max))]


def b_d_poly(d: int, n: int) -> Polynomial:
    """B(d;n,x) = sum_m C(n,m) B(d;n-m) x^m; B(d;n,0) = B(d;n)."""
    if d < 1:
        raise DomainError("d must be a positive integer")
    if n < 0:
        raise DomainError("degree must be non-negative")
    numbers = b_d_numbers(d, n)
    return Polynomial([math.comb(n, m) * numbers[n - m] for m in range(n + 1)])


def b_gen_egf(prog: Progression, order: int) -> Fps:
    """E.g.f. of the two-parameter numbers: d*t*e^(a*t) / (e^(d*t) - 1).

    Built as d * e^(a*t) / ((e^(d*t) - 1)/t), whose denominator has the
    nonzero constant term d.
    """
    numerator = Fps.exp_of(prog.a, order)
    denominator = (Fps.exp_of(prog.d, order + 1) - 1).shifted_down(1)
    return numerator * denominator.reciprocal() * prog.d


def appell_pair(prog: Progression, order: int) -> ShefferPair:
    """The Appell pair (d*t*e^(a*t)/(e^(d*t)-1), t) of the B(d,a;n,x) system."""
    return ShefferPair(b_gen_egf(prog, order), Fps.x(order), label=f"bernoulli[{prog.d},{prog.a}]")
