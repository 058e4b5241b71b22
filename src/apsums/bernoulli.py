"""Bernoulli numbers and polynomials, ordinary and generalized.

The ordinary numbers come from an integer kernel: the tangent numbers
T(1..k) of Brent and Harvey's O(k^2) in-place recurrence give
B(2k) = (-1)^(k-1) 2k T(k) / (4^k (4^k - 1)), with B(0) = 1, the
convention B(1) = -1/2, and B(n) = 0 for odd n >= 3.  The table is kept
as integer numerators over one common denominator L, so the routes that
sum over it (the two-parameter and one-parameter numbers and the
shifted-power route of the two-parameter polynomials here, the ordinary
and generalized Faulhaber formulas in ``powersum``) add in ``int`` and
reduce each output value to a ``Fraction`` exactly once.
The defining recursion survives only as the verifier's independent
cross-check.  The two-parameter numbers B(d,a;n) arise from an
alternating factorial-weighted sum over the S2[d,a] row (``b_gen``, which
also sums in ``int``, over lcm(1..n+1), and divides once), or
equivalently from the binomial a/d expansion of the ordinary numbers.  The
one-parameter family B(d;n) = d^n B(n), whose polynomials drive the
generalized Faulhaber formula, is the a-independent contraction of the
two-parameter one; at d = 1 its polynomials ``b_d_poly(1, n)`` are the
ordinary Bernoulli polynomials.  Nothing is cached between calls.

Reference: R. P. Brent and D. Harvey, "Fast computation of Bernoulli,
Tangent and Secant numbers", Springer Proc. Math. Stat. 50 (2013).
"""

from __future__ import annotations

import math
from fractions import Fraction

from .errors import DomainError
from .exact import Progression
from .fps import Fps
from .poly import Polynomial, _poly
from .stirling import s2_triangle

__all__ = [
    "bernoulli_numbers",
    "b_gen",
    "b_gen_numbers",
    "b_gen_poly",
    "b_gen_poly_rows",
    "b_gen_poly_via_ordinary",
    "b_d_numbers",
    "b_d_poly",
    "b_d_poly_rows",
    "b_gen_egf",
]


def _tangent_numbers(k_max: int) -> list[int]:
    """T(1..k_max), the Taylor coefficients of tan(t) times (2k-1)!, in int.

    Brent and Harvey's recurrence: start from T(k) = (k-1)! and sweep
    T(j) <- (j-k) T(j-1) + (j-k+2) T(j) for k = 2..k_max, j = k..k_max.
    """
    t = [0, 1] + [0] * (k_max - 1)
    for k in range(2, k_max + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, k_max + 1):
        for j in range(k, k_max + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return t[1 : k_max + 1]


def _bernoulli_table(n_max: int) -> tuple[list[int], int]:
    """(N, L) with B(n) = N[n] / L for n = 0..n_max, over one denominator L.

    L is the least common denominator, the lcm of the reduced denominators
    of B(1) and of B(2k) = (-1)^(k-1) 2k T(k) / (4^k (4^k - 1)); by von
    Staudt-Clausen it is the product of the primes p <= n_max + 1.
    """
    if n_max < 0:
        raise DomainError("n_max must be non-negative")
    even = []  # B(2k) as a reduced (numerator, denominator) pair
    for k, t in enumerate(_tangent_numbers(n_max // 2), start=1):
        num, den = (-1) ** (k - 1) * 2 * k * t, 4**k * (4**k - 1)
        g = math.gcd(num, den)
        even.append((num // g, den // g))
    common = math.lcm(2 if n_max else 1, *(den for _, den in even))
    nums = [common, -common // 2] + [0] * (n_max - 1)
    for k, (num, den) in enumerate(even, start=1):
        nums[2 * k] = num * (common // den)
    return nums[: n_max + 1], common


def bernoulli_numbers(n_max: int) -> list[Fraction]:
    """B(0..n_max) from the tangent numbers; B(0) = 1, B(1) = -1/2.

    >>> print(", ".join(map(str, bernoulli_numbers(4))))
    1, -1/2, 1/6, 0, -1/30
    >>> _tangent_numbers(5)
    [1, 2, 16, 272, 7936]
    """
    nums, den = _bernoulli_table(n_max)
    return [Fraction(num, den) for num in nums]


def _appell(numbers: list[Fraction], n: int) -> Polynomial:
    """The Appell polynomial sum_m C(n,m) numbers[n-m] x^m of a number table."""
    return Polynomial([math.comb(n, m) * numbers[n - m] for m in range(n + 1)])


def b_gen(prog: Progression, n: int) -> Fraction:
    """Two-parameter number B(d,a;n) = sum_m (-1)^m S2(d,a;n,m) m!/(m+1),
    summed in int over L = lcm(1..n+1) and divided once by L."""
    if n < 0:
        raise DomainError("index must be non-negative")
    row = s2_triangle(prog, n).row(n)
    den = math.lcm(*range(1, n + 2))
    acc = 0
    for m, value in enumerate(row):
        term = value * math.factorial(m) * (den // (m + 1))
        acc += -term if m % 2 else term
    return Fraction(acc, den)


def b_gen_numbers(prog: Progression, n_max: int) -> list[Fraction]:
    """B(d,a;0..n_max) by the binomial a/d expansion over one table of B(0..n_max):

    B(d,a;n) = sum_m C(n,m) a^(n-m) d^m B(m),

    summed in int over the numerators of the table and divided once by
    its common denominator.

    >>> print(", ".join(map(str, b_gen_numbers(Progression(2, 1), 4))))
    1, 0, -1/3, 0, 7/15
    """
    if n_max < 0:
        raise DomainError("index must be non-negative")
    nums, den = _bernoulli_table(n_max)
    a_powers = [prog.a**i for i in range(n_max + 1)]  # 0 ** 0 == 1
    scaled = [(m, prog.d**m * num) for m, num in enumerate(nums) if num]
    return [
        Fraction(sum(math.comb(n, m) * a_powers[n - m] * c for m, c in scaled if m <= n), den)
        for n in range(n_max + 1)
    ]


def b_gen_poly(prog: Progression, n: int) -> Polynomial:
    """B(d,a;n,x) = sum_m C(n,m) B(d,a;n-m) x^m."""
    if n < 0:
        raise DomainError("degree must be non-negative")
    return _appell(b_gen_numbers(prog, n), n)


def b_gen_poly_rows(prog: Progression, size: int) -> list[Polynomial]:
    """[B(d,a;n,x) for n = 0..size], all over one list B(d,a;0..size);
    row n equals ``b_gen_poly(prog, n)``."""
    if size < 0:
        raise DomainError("degree must be non-negative")
    numbers = b_gen_numbers(prog, size)
    return [_appell(numbers, n) for n in range(size + 1)]


def b_gen_poly_via_ordinary(prog: Progression, n: int) -> Polynomial:
    """Same polynomial assembled the other way:

    B(d,a;n,x) = sum_m C(n,m) d^m B(m) (a+x)^(n-m),

    with (a+x)^(n-m) expanded binomially in int, summed over the numerators
    of one table of B(0..n) and kept over its common denominator as the
    polynomial's numerator pair, reduced once.
    """
    if n < 0:
        raise DomainError("degree must be non-negative")
    nums, den = _bernoulli_table(n)
    acc = [0] * (n + 1)
    shifted = [1]  # coefficients of (a+x)^(n-m), from m = n down to 0
    for m in range(n, -1, -1):
        if nums[m]:
            coeff = math.comb(n, m) * prog.d**m * nums[m]
            for i, c in enumerate(shifted):
                acc[i] += coeff * c
        shifted = [prog.a * lo + hi for lo, hi in zip([*shifted, 0], [0, *shifted])]
    return _poly(acc, den)


def b_d_numbers(d: int, n_max: int) -> list[Fraction]:
    """One-parameter numbers B(d;n) = d^n B(n) for n = 0..n_max, each
    reduced once from d^n times its table numerator."""
    if d < 1:
        raise DomainError("d must be a positive integer")
    nums, den = _bernoulli_table(n_max)
    return [Fraction(d**n * num, den) for n, num in enumerate(nums)]


def b_d_poly(d: int, n: int) -> Polynomial:
    """B(d;n,x) = sum_m C(n,m) B(d;n-m) x^m; B(d;n,0) = B(d;n)."""
    if d < 1:
        raise DomainError("d must be a positive integer")
    if n < 0:
        raise DomainError("degree must be non-negative")
    return _appell(b_d_numbers(d, n), n)


def b_d_poly_rows(d: int, size: int) -> list[Polynomial]:
    """[B(d;n,x) for n = 0..size], all over one list B(d;0..size);
    row n equals ``b_d_poly(d, n)``."""
    if size < 0:
        raise DomainError("degree must be non-negative")
    numbers = b_d_numbers(d, size)
    return [_appell(numbers, n) for n in range(size + 1)]


def b_gen_egf(prog: Progression, order: int) -> Fps:
    """E.g.f. of the two-parameter numbers: d*t*e^(a*t) / (e^(d*t) - 1).

    Built as d * e^(a*t) / ((e^(d*t) - 1)/t), whose denominator has the
    nonzero constant term d.
    """
    numerator = Fps.exp_of(prog.a, order)
    denominator = (Fps.exp_of(prog.d, order + 1) - 1).shifted_down(1)
    return numerator * denominator.reciprocal() * prog.d
