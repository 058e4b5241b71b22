"""Generalized Stirling triangles of both kinds for step d and offset a.

The second-kind triangle S2[d,a] reorders powers of the operator
a*1 + d*x*d/dx and carries the three-term recurrence

    S2(n,m) = d*S2(n-1,m-1) + (a + d*m)*S2(n-1,m).

Its Sheffer pair is (e^(a*t), e^(d*t) - 1).  The column-scaled variant
S2hat divides column m by d^m; the row-factorial variant S2fac multiplies
column m by m!.  On the first-kind side, S1[d,a] is the group inverse of
S2[d,a], and the non-negative integer triangle S1phat scales the unsigned
rows by d^n, so S1p(n,m) = S1phat(n,m)/d^n and
S1(n,m) = (-1)^(n-m) S1phat(n,m)/d^n.  Every triangle is built from an
integer recurrence on plain int (S1 and S1p divide the S1phat rows by
d^n, so they hold Fraction).  The closed forms (alternating sums, basis
changes, the two Schloemilch triple sums, symmetric functions) and the
Sheffer pairs are kept as independent cross-check routes.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Callable

from .errors import DomainError, OutOfTriangle
from .exact import Progression, binomial_general, integer_power, risefac
from .fps import Fps
from .sheffer import ShefferPair, Triangle
from .symfunc import Alphabet, elementary_sigma

__all__ = [
    "s2_triangle",
    "s2hat_triangle",
    "s2fac_triangle",
    "s2_explicit",
    "s2_from_ordinary",
    "s2_ordinary_from_general",
    "s1_triangle",
    "s1p_triangle",
    "s1phat_triangle",
    "s1phat_from_sigma",
    "s1phat_from_ordinary",
    "s1p_ordinary_schlomilch",
    "s1phat_schlomilch",
    "s1phat_schlomilch_v2",
    "monomial_in_fallfac",
    "s2_pair",
    "s2hat_pair",
    "s1_pair",
    "s1hat_pair",
    "s1phat_pair",
]


def _require_in_triangle(n: int, m: int) -> None:
    if n < 0 or m < 0 or m > n:
        raise OutOfTriangle(f"entry ({n}, {m}) lies outside the triangle")


def _recurrence_triangle(
    size: int,
    left: Callable[[int, int], int],
    right: Callable[[int, int], int],
) -> Triangle:
    """Rows 0..size of T(n,m) = left(n,m) T(n-1,m-1) + right(n,m) T(n-1,m)
    from T(0,0) = 1, on int: integer coefficients keep every entry integral."""
    if size < 0:
        raise DomainError("size must be non-negative")
    rows = [[1]]
    for n in range(1, size + 1):
        prev = [0, *rows[-1], 0]
        rows.append([left(n, m) * prev[m] + right(n, m) * prev[m + 1] for m in range(n + 1)])
    return Triangle(rows)


# -- second kind ---------------------------------------------------------------


def s2_triangle(prog: Progression, size: int) -> Triangle:
    """S2[d,a] rows 0..size from the three-term recurrence.

    The entries are plain ints:

    >>> s2_triangle(Progression(2, 1), 2).rows
    ((1,), (1, 2), (1, 8, 4))
    """
    d, a = prog.d, prog.a
    return _recurrence_triangle(size, lambda n, m: d, lambda n, m: a + d * m)


def s2hat_triangle(prog: Progression, size: int) -> Triangle:
    """Column-scaled S2hat(n,m) = S2(n,m) / d^m, from its own recurrence

    S2hat(n,m) = S2hat(n-1,m-1) + (a + d*m) * S2hat(n-1,m).
    """
    d, a = prog.d, prog.a
    return _recurrence_triangle(size, lambda n, m: 1, lambda n, m: a + d * m)


def s2fac_triangle(prog: Progression, size: int) -> Triangle:
    """S2fac(n,m) = S2(n,m) * m!, built from its own recurrence."""
    d, a = prog.d, prog.a
    return _recurrence_triangle(size, lambda n, m: m * d, lambda n, m: a + d * m)


def s2_explicit(prog: Progression, n: int, m: int) -> Fraction:
    """Alternating-sum closed form (1/m!) sum_k (-1)^(m-k) C(m,k) (a+dk)^n."""
    _require_in_triangle(n, m)
    acc = Fraction(0)
    for k in range(m + 1):
        sign = -1 if (m - k) % 2 else 1
        acc += sign * math.comb(m, k) * integer_power(prog.term(k), n)
    return acc / math.factorial(m)


def s2_from_ordinary(prog: Progression, n: int, m: int) -> Fraction:
    """S2[d,a] from the ordinary Stirling2 via the binomial a/d expansion."""
    _require_in_triangle(n, m)
    ordinary = s2_triangle(Progression(1, 0), n)
    acc = Fraction(0)
    for k in range(m, n + 1):
        acc += math.comb(n, k) * integer_power(prog.a, n - k) * prog.d**k * ordinary.entry(k, m)
    return acc


def s2_ordinary_from_general(prog: Progression, n: int, m: int) -> Fraction:
    """Recover ordinary S2(n,m) from the [d,a] family; needs a >= 1.

    Inversion of the binomial expansion:
    S2(n,m) = (-a/d)^n sum_k (-1)^k C(n,k) a^(-k) S2(d,a;k,m).
    """
    _require_in_triangle(n, m)
    if prog.a == 0:
        raise DomainError("inversion is degenerate at a = 0")
    general = s2_triangle(prog, n)
    acc = Fraction(0)
    for k in range(n + 1):
        sign = -1 if k % 2 else 1
        acc += sign * math.comb(n, k) * Fraction(1, prog.a**k) * general.entry(k, m)
    return integer_power(Fraction(-prog.a, prog.d), n) * acc


def monomial_in_fallfac(prog: Progression, n: int) -> list[Fraction]:
    """Coefficients expressing x^n in the generalized falling-factorial basis.

    These are exactly row n of S2hat; the expansion identity is exercised
    by the verification suite.
    """
    if n < 0:
        raise DomainError("degree must be non-negative")
    return list(s2hat_triangle(prog, n).row(n))


# -- first kind ----------------------------------------------------------------


def s1phat_triangle(prog: Progression, size: int) -> Triangle:
    """Non-negative integer triangle S1phat from its three-term recurrence:

    S1phat(n,m) = S1phat(n-1,m-1) + (d*n - (d-a)) * S1phat(n-1,m).
    """
    d, a = prog.d, prog.a
    return _recurrence_triangle(size, lambda n, m: 1, lambda n, m: d * n - (d - a))


def s1p_triangle(prog: Progression, size: int) -> Triangle:
    """Unsigned S1p(n,m) = S1phat(n,m) / d^n, as Fraction; fractional for d > 1."""
    rows = s1phat_triangle(prog, size).rows
    return Triangle([Fraction(c, prog.d**n) for c in row] for n, row in enumerate(rows))


def s1_triangle(prog: Progression, size: int) -> Triangle:
    """Signed S1(n,m) = (-1)^(n-m) S1p(n,m), the matrix inverse of S2[d,a]."""
    return s1p_triangle(prog, size).signed()


def s1phat_from_sigma(prog: Progression, n: int, m: int) -> Fraction:
    """S1phat(n,m) as the elementary symmetric function of degree n-m
    of the first n progression members."""
    _require_in_triangle(n, m)
    return Fraction(elementary_sigma(Alphabet(prog, n), n - m))


def s1phat_from_ordinary(prog: Progression, n: int, m: int) -> Fraction:
    """S1phat from ordinary unsigned Stirling1, sorted in powers of a:

    sum_{j=m}^{n} C(j,m) S1p(n,j) a^(j-m) d^(n-j).
    """
    _require_in_triangle(n, m)
    ordinary = s1phat_triangle(Progression(1, 0), n)
    acc = Fraction(0)
    for j in range(m, n + 1):
        acc += (
            math.comb(j, m)
            * ordinary.entry(n, j)
            * integer_power(prog.a, j - m)
            * prog.d ** (n - j)
        )
    return acc


def s1p_ordinary_schlomilch(n: int, m: int) -> Fraction:
    """Ordinary unsigned Stirling1 by the classical double-binomial sum over
    ordinary Stirling2 values.

    The printed sum covers n >= 1 (the binomial convention makes it vanish
    at n = m = 0); the empty case is returned directly.
    """
    _require_in_triangle(n, m)
    if n == 0:
        return Fraction(1)
    ordinary_s2 = s2_triangle(Progression(1, 0), 2 * n - m)
    acc = Fraction(0)
    for k in range(n - m + 1):
        sign = -1 if k % 2 else 1
        acc += (
            sign
            * binomial_general(n + k - 1, m - 1)
            * binomial_general(2 * n - m, n - m - k)
            * ordinary_s2.entry(n - m + k, k)
        )
    return (1 if (n - m) % 2 == 0 else -1) * acc


def s1phat_schlomilch(prog: Progression, n: int, m: int) -> Fraction:
    """Generalized Schloemilch formula: triple sum over S2hat values.

    The powers of a are combined into a^(n-m+k-l), whose exponent is never
    negative; with 0^0 = 1 the a = 0 case collapses as required and no
    separate branch is needed.  Covers n >= 1 as printed; (0,0) is direct.
    """
    _require_in_triangle(n, m)
    if n == 0:
        return Fraction(1)
    s2h = s2hat_triangle(prog, max(n, 2 * (n - m)))  # the l-sum reaches index 2(n-m)
    acc = Fraction(0)
    for j in range(m, n + 1):
        cjm = math.comb(j, m)
        for k in range(n - j + 1):
            outer = (
                cjm
                * binomial_general(n + k - 1, j - 1)
                * binomial_general(2 * n - j, n - j - k)
            )
            if outer == 0:
                continue
            inner = Fraction(0)
            for l in range(n - j + k + 1):
                sign = -1 if l % 2 else 1
                inner += (
                    sign
                    * math.comb(n - j + k, l)
                    * integer_power(prog.a, n - m + k - l)
                    * s2h.entry(l, k)
                )
            acc += outer * inner
    return acc


def s1phat_schlomilch_v2(prog: Progression, n: int, m: int) -> Fraction:
    """The second Schloemilch-style derivation: reordered triple sum with
    rising-factorial prefactors.  Column 0 is the rising factorial itself.
    """
    _require_in_triangle(n, m)
    if m == 0:
        return risefac(prog, 0, n)
    a = prog.a
    s2h = s2hat_triangle(prog, 2 * (n - m))  # inner entries reach index 2(n-m)
    total = Fraction(0)
    for r in range(n - m + 1):
        r_sign = -1 if r % 2 else 1
        r_factor = Fraction(r_sign, math.factorial(r))
        k_sum = Fraction(0)
        for k in range(r, n - m + 1):
            p_sum = Fraction(0)
            for p in range(k + 1):
                sign = -1 if p % 2 else 1
                p_sum += (
                    sign
                    * Fraction(math.comb(k, p), math.comb(p + r, r))
                    * integer_power(a, k - p)
                    * s2h.entry(p + r, r)
                )
            k_sum += (
                risefac(prog, 0, n - k - m)
                * math.comb(2 * k + m, k + m)
                * Fraction(1, k + m + r)
                * Fraction(1, math.factorial(n - m - k))
                * Fraction(1, math.factorial(k - r))
                * p_sum
            )
        total += r_factor * k_sum
    return Fraction(math.factorial(n), math.factorial(m - 1)) * total


# -- Sheffer pairs for the families ---------------------------------------------


def s2_pair(prog: Progression, order: int) -> ShefferPair:
    """(e^(a*t), e^(d*t) - 1)."""
    g = Fps.exp_of(prog.a, order)
    f = Fps.exp_of(prog.d, order) - 1
    return ShefferPair(g, f, label=f"s2[{prog.d},{prog.a}]")


def s2hat_pair(prog: Progression, order: int) -> ShefferPair:
    """(e^(a*t), (e^(d*t) - 1)/d)."""
    g = Fps.exp_of(prog.a, order)
    f = (Fps.exp_of(prog.d, order) - 1) / prog.d
    return ShefferPair(g, f, label=f"s2hat[{prog.d},{prog.a}]")


def s1_pair(prog: Progression, order: int) -> ShefferPair:
    """((1+y)^(-a/d), log(1+y)/d)."""
    one_plus = Fps([1, 1], order=order)
    g = one_plus.pow(Fraction(-prog.a, prog.d))
    f = one_plus.log() / prog.d
    return ShefferPair(g, f, label=f"s1[{prog.d},{prog.a}]")


def s1hat_pair(prog: Progression, order: int) -> ShefferPair:
    """((1+d*y)^(-a/d), log(1+d*y)/d), the inverse pair of s2hat."""
    one_plus_d = Fps([1, prog.d], order=order)
    g = one_plus_d.pow(Fraction(-prog.a, prog.d))
    f = one_plus_d.log() / prog.d
    return ShefferPair(g, f, label=f"s1hat[{prog.d},{prog.a}]")


def s1phat_pair(prog: Progression, order: int) -> ShefferPair:
    """((1-d*y)^(-a/d), -log(1-d*y)/d)."""
    one_minus_d = Fps([1, -prog.d], order=order)
    g = one_minus_d.pow(Fraction(-prog.a, prog.d))
    f = -(one_minus_d.log()) / prog.d
    return ShefferPair(g, f, label=f"s1phat[{prog.d},{prog.a}]")
