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
integer recurrence on plain int; S1p stores the S1phat rows as its
numerators over the row denominators d^n and S1 flips their signs, so
neither builds a Fraction, and their entries read as Fraction.  The
closed forms (alternating sums, basis changes, the two Schloemilch triple
sums, symmetric functions) and the Sheffer pairs are kept as independent
cross-check routes.  The basis changes and the triple sums are triangle
builders ``..._triangle(prog, size)`` that build their input triangle,
powers and inner sums once per (prog, size).  The alternating sum
:func:`s2_explicit` and the symmetric-function route
:func:`s1phat_from_sigma` give one entry (n, m) each, as a Fraction.
"""

from __future__ import annotations

import math
from collections.abc import Callable
from fractions import Fraction

from .errors import DomainError
from .exact import Progression, binomial_general
from .fps import Fps
from .sheffer import ShefferPair, Triangle, _reduced_triangle, _triangle
from .symfunc import Alphabet, elementary_sigma

__all__ = [
    "s2_triangle",
    "s2hat_triangle",
    "s2fac_triangle",
    "s2_explicit",
    "s2_from_ordinary_triangle",
    "s2_ordinary_from_general_triangle",
    "s1_triangle",
    "s1p_triangle",
    "s1phat_triangle",
    "s1phat_from_sigma",
    "s1phat_from_ordinary_triangle",
    "s1phat_schlomilch_triangle",
    "s1phat_schlomilch_v2_triangle",
    "s2_pair",
    "s2hat_pair",
    "s1_pair",
    "s1hat_pair",
    "s1phat_pair",
]


def _require_in_triangle(n: int, m: int) -> None:
    if n < 0 or m < 0 or m > n:
        raise DomainError(f"entry ({n}, {m}) lies outside the triangle")


def _recurrence_triangle(
    size: int,
    left: Callable[[int, int], int],
    right: Callable[[int, int], int],
) -> Triangle:
    """Rows 0..size of T(n,m) = left(n,m) T(n-1,m-1) + right(n,m) T(n-1,m)
    from T(0,0) = 1, on int: integer coefficients keep every entry integral."""
    if size < 0:
        raise DomainError("size must be non-negative")
    rows = [(1,)]
    for n in range(1, size + 1):
        prev = [0, *rows[-1], 0]
        rows.append(tuple([left(n, m) * prev[m] + right(n, m) * prev[m + 1] for m in range(n + 1)]))
    return _triangle(tuple(rows), None)


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
    acc = 0
    for k in range(m + 1):
        sign = -1 if (m - k) % 2 else 1
        acc += sign * math.comb(m, k) * prog.term(k) ** n
    return Fraction(acc, math.factorial(m))


def s2_from_ordinary_triangle(prog: Progression, size: int) -> Triangle:
    """S2[d,a] rows 0..size from the ordinary Stirling2 via the binomial a/d
    expansion, over one ordinary triangle, in int:

    S2(d,a;n,m) = sum_{k=m}^{n} C(n,k) a^(n-k) d^k S2(k,m).
    """
    ordinary = s2_triangle(Progression(1, 0), size)
    a_powers = [prog.a**i for i in range(size + 1)]  # 0 ** 0 == 1
    d_powers = [prog.d**i for i in range(size + 1)]
    return Triangle(
        [sum(math.comb(n, k) * a_powers[n - k] * d_powers[k] * ordinary.entry(k, m) for k in range(m, n + 1))
         for m in range(n + 1)]
        for n in range(size + 1)
    )


def s2_ordinary_from_general_triangle(prog: Progression, size: int) -> Triangle:
    """Recover the ordinary S2 rows 0..size from the [d,a] family; needs a >= 1.

    Inversion of the binomial expansion,
    S2(n,m) = (-a/d)^n sum_k (-1)^k C(n,k) a^(-k) S2(d,a;k,m),
    with a^n carried inside: the sum of (-1)^k C(n,k) a^(n-k) S2(d,a;k,m)
    is taken in int over one [d,a] triangle, and each row is reduced once
    over its denominator (-d)^n.
    """
    if prog.a == 0:
        raise DomainError("inversion is degenerate at a = 0")
    general = s2_triangle(prog, size)
    a_powers = [prog.a**i for i in range(size + 1)]
    rows = []
    for n in range(size + 1):
        signed = [(-1 if k % 2 else 1) * math.comb(n, k) * a_powers[n - k] for k in range(n + 1)]
        rows.append([sum(signed[k] * general.entry(k, m) for k in range(m, n + 1)) for m in range(n + 1)])
    return _reduced_triangle(rows, [(-prog.d) ** n for n in range(size + 1)])


# -- first kind ----------------------------------------------------------------


def s1phat_triangle(prog: Progression, size: int) -> Triangle:
    """Non-negative integer triangle S1phat from its three-term recurrence:

    S1phat(n,m) = S1phat(n-1,m-1) + (d*n - (d-a)) * S1phat(n-1,m).
    """
    d, a = prog.d, prog.a
    return _recurrence_triangle(size, lambda n, m: 1, lambda n, m: d * n - (d - a))


def s1p_triangle(prog: Progression, size: int) -> Triangle:
    """Unsigned S1p(n,m) = S1phat(n,m) / d^n: the S1phat rows over the row
    denominators d^n, already canonical since S1phat(n,n) = 1.  Its entries
    read as Fraction (fractional for d > 1)."""
    return _triangle(s1phat_triangle(prog, size).rows, tuple([prog.d**n for n in range(size + 1)]))


def s1_triangle(prog: Progression, size: int) -> Triangle:
    """Signed S1(n,m) = (-1)^(n-m) S1p(n,m), the matrix inverse of S2[d,a]."""
    return s1p_triangle(prog, size).signed()


def s1phat_from_sigma(prog: Progression, n: int, m: int) -> Fraction:
    """S1phat(n,m) as the elementary symmetric function of degree n-m
    of the first n progression members."""
    _require_in_triangle(n, m)
    return Fraction(elementary_sigma(Alphabet(prog, n), n - m))


def s1phat_from_ordinary_triangle(prog: Progression, size: int) -> Triangle:
    """S1phat rows 0..size from ordinary unsigned Stirling1, sorted in powers
    of a, over one ordinary triangle, in int:

    S1phat(n,m) = sum_{j=m}^{n} C(j,m) S1p(n,j) a^(j-m) d^(n-j).
    """
    ordinary = s1phat_triangle(Progression(1, 0), size)
    a_powers = [prog.a**i for i in range(size + 1)]  # 0 ** 0 == 1
    d_powers = [prog.d**i for i in range(size + 1)]
    return Triangle(
        [sum(math.comb(j, m) * ordinary.entry(n, j) * a_powers[j - m] * d_powers[n - j] for j in range(m, n + 1))
         for m in range(n + 1)]
        for n in range(size + 1)
    )


def s1phat_schlomilch_triangle(prog: Progression, size: int) -> Triangle:
    """S1phat rows 0..size by the generalized Schloemilch formula, a triple
    sum over S2hat values:

    S1phat(n,m) = sum_{j=m}^{n} C(j,m) sum_{k=0}^{n-j} C(n+k-1,j-1) C(2n-j,n-j-k)
                  sum_{l=k}^{n-j+k} (-1)^l C(n-j+k,l) a^(n-m+k-l) S2hat(l,k).

    The powers of a split as a^(j-m) a^(q-l) with q = n-j+k; both
    exponents are never negative, and with 0^0 = 1 the a = 0 case
    collapses as required, with no separate branch.  So the inner l-sum
    I(q,k) = sum_l (-1)^l C(q,l) a^(q-l) S2hat(l,k) is staged once per
    (q, k) over one S2hat triangle of rows 0..2*size (the l-sum reaches
    index 2(n-m)), and every term is an integer.  S2hat(l,k) vanishes for
    l < k.  Covers n >= 1 as printed; row 0 is direct.  At (d, a) = (1, 0)
    only l = q survives, which the l-range reaches only at j = m: the
    classical double-binomial sum
    sum_k (-1)^(n-m+k) C(n+k-1,m-1) C(2n-m,n-m-k) S2(n-m+k,k).
    """
    if size < 0:
        raise DomainError("size must be non-negative")
    a = prog.a
    s2h = s2hat_triangle(prog, 2 * size)
    a_powers = [a**i for i in range(2 * size + 1)]  # 0 ** 0 == 1
    inner = [
        [sum((-1 if l % 2 else 1) * math.comb(q, l) * a_powers[q - l] * s2h.entry(l, k) for l in range(k, q + 1))
         for k in range(q + 1)]
        for q in range(2 * size + 1)
    ]
    rows = [[1]]
    for n in range(1, size + 1):
        row = []
        for m in range(n + 1):
            acc = 0
            for j in range(m, n + 1):
                cjm = math.comb(j, m) * a_powers[j - m]
                for k in range(n - j + 1):
                    outer = binomial_general(n + k - 1, j - 1) * binomial_general(2 * n - j, n - j - k)
                    if outer:
                        acc += cjm * outer * inner[n - j + k][k]
            row.append(acc)
        rows.append(row)
    return Triangle(rows)


def s1phat_schlomilch_v2_triangle(prog: Progression, size: int) -> Triangle:
    """S1phat rows 0..size by the second Schloemilch-style derivation, a
    reordered triple sum with rising-factorial prefactors; column 0 is the
    rising factorial R(n) = prod_{i<n} (a + d*i) itself.  For m >= 1,

    S1phat(n,m) = n!/(m-1)! sum_{r=0}^{n-m} (-1)^r/r! sum_{k=r}^{n-m}
                  R(n-m-k) C(2k+m,k+m) / ((k+m+r) (n-m-k)! (k-r)!) P(k,r),
    P(k,r) = sum_{p=0}^{k} (-1)^p C(k,p)/C(p+r,r) a^(k-p) S2hat(p+r,r).

    P(k,r) depends on (prog, k, r) alone: it is staged once for every
    k <= size, over one S2hat triangle of rows 0..2*size, as an integer
    numerator over the common denominator M = lcm_{p,r<=size} C(p+r,r).
    With 1/(r! (k-r)!) = C(k,r)/k!, 1/(k! (n-m-k)!) = C(n-m,k)/(n-m)! and
    n!/((m-1)! (n-m)!) = m C(n,m), each entry of row n is the int sum of
    (-1)^r R(n-m-k) C(2k+m,k+m) C(k,r) C(n-m,k) P_num(k,r) L/(k+m+r),
    over L = lcm(1..2n-1), which every k+m+r of the row divides, times
    m C(n,m); the row is reduced once over its denominator M L.
    """
    if size < 0:
        raise DomainError("size must be non-negative")
    a = prog.a
    s2h = s2hat_triangle(prog, 2 * size)
    rising = [1]
    for i in range(size):
        rising.append(rising[-1] * prog.term(i))
    den = math.lcm(*(math.comb(p + r, r) for r in range(size + 1) for p in range(size + 1)))
    p_sum = [
        [sum((-1 if p % 2 else 1) * math.comb(k, p) * (den // math.comb(p + r, r)) * a ** (k - p) * s2h.entry(p + r, r)
             for p in range(k + 1))
         for r in range(k + 1)]
        for k in range(size + 1)
    ]
    rows, dens = [], []
    for n in range(size + 1):
        lcm = math.lcm(*range(1, 2 * n))
        row = [rising[n] * den * lcm]
        for m in range(1, n + 1):
            span = n - m
            acc = 0
            for r in range(span + 1):
                for k in range(r, span + 1):
                    term = (rising[span - k] * math.comb(2 * k + m, k + m) * math.comb(k, r)
                            * math.comb(span, k) * p_sum[k][r] * (lcm // (k + m + r)))
                    acc += -term if r % 2 else term
            row.append(m * math.comb(n, m) * acc)
        rows.append(row)
        dens.append(den * lcm)
    return _reduced_triangle(rows, dens)


# -- Sheffer pairs for the families ---------------------------------------------


def s2_pair(prog: Progression, order: int) -> ShefferPair:
    """(e^(a*t), e^(d*t) - 1)."""
    g = Fps.exp_of(prog.a, order)
    f = Fps.exp_of(prog.d, order) - 1
    return ShefferPair(g, f)


def s2hat_pair(prog: Progression, order: int) -> ShefferPair:
    """(e^(a*t), (e^(d*t) - 1)/d)."""
    g = Fps.exp_of(prog.a, order)
    f = (Fps.exp_of(prog.d, order) - 1) / prog.d
    return ShefferPair(g, f)


def s1_pair(prog: Progression, order: int) -> ShefferPair:
    """((1+y)^(-a/d), log(1+y)/d)."""
    one_plus = Fps([1, 1], order=order)
    g = one_plus.pow(Fraction(-prog.a, prog.d))
    f = one_plus.log() / prog.d
    return ShefferPair(g, f)


def _log_pair(d: int, a: int, order: int) -> ShefferPair:
    """((1-d*y)^(-a/d), -log(1-d*y)/d); at (-d, -a) it is
    ((1+d*y)^(-a/d), log(1+d*y)/d)."""
    one_minus_d = Fps([1, -d], order=order)
    g = one_minus_d.pow(Fraction(-a, d))
    f = -(one_minus_d.log()) / d
    return ShefferPair(g, f)


def s1hat_pair(prog: Progression, order: int) -> ShefferPair:
    """((1+d*y)^(-a/d), log(1+d*y)/d), the inverse pair of s2hat."""
    return _log_pair(-prog.d, -prog.a, order)


def s1phat_pair(prog: Progression, order: int) -> ShefferPair:
    """((1-d*y)^(-a/d), -log(1-d*y)/d)."""
    return _log_pair(prog.d, prog.a, order)
