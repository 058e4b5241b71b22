"""Row-reversed generalized Eulerian triangles and the reordering transform.

The o.g.f. of the powers (a + d*m)^n can be written either as a stack of
terms b_j * x^j / (1-x)^(j+1) or with a single denominator
P(x) / (1-x)^(n+1); :func:`reorder_b_to_a` / :func:`reorder_a_to_b`
convert between the two coefficient systems and are exact inverses.
Applied to the factorial-scaled Stirling row they produce the rEu[d,a]
triangle, stored here in the row-reversed orientation in which all of
its formulas are stated.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Sequence

from .errors import OutOfTriangle, ShapeError
from .exact import Progression, integer_power
from .sheffer import Triangle
from .stirling import _recurrence_triangle, s2_triangle

__all__ = [
    "reorder_b_to_a",
    "reorder_a_to_b",
    "reu_explicit",
    "reu_triangle",
    "reu_from_s2fac",
    "s2fac_from_reu",
    "reu_from_ordinary",
]


def reorder_b_to_a(b: Sequence[Fraction | int], n: int) -> list[Fraction]:
    """From stacked coefficients b_j to single-denominator coefficients a_i:

    a_i = sum_j (-1)^(i-j) C(n-j, i-j) b_j.
    """
    if len(b) != n + 1:
        raise ShapeError(f"expected {n + 1} coefficients, got {len(b)}")
    out = []
    for i in range(n + 1):
        acc = Fraction(0)
        for j in range(i + 1):
            sign = -1 if (i - j) % 2 else 1
            acc += sign * math.comb(n - j, i - j) * Fraction(b[j])
        out.append(acc)
    return out


def reorder_a_to_b(a: Sequence[Fraction | int], n: int) -> list[Fraction]:
    """Exact inverse of :func:`reorder_b_to_a`:

    b_j = sum_i C(n-i, j-i) a_i.
    """
    if len(a) != n + 1:
        raise ShapeError(f"expected {n + 1} coefficients, got {len(a)}")
    out = []
    for j in range(n + 1):
        acc = Fraction(0)
        for i in range(j + 1):
            acc += math.comb(n - i, j - i) * Fraction(a[i])
        out.append(acc)
    return out


def reu_explicit(prog: Progression, n: int, k: int) -> Fraction:
    """rEu(d,a;n,k) = sum_j (-1)^(k-j) C(n+1, k-j) (a + d*j)^n."""
    if n < 0 or k < 0 or k > n:
        raise OutOfTriangle(f"entry ({n}, {k}) lies outside the triangle")
    acc = Fraction(0)
    for j in range(k + 1):
        sign = -1 if (k - j) % 2 else 1
        acc += sign * math.comb(n + 1, k - j) * integer_power(prog.term(j), n)
    return acc


def reu_triangle(prog: Progression, size: int) -> Triangle:
    """rEu[d,a] rows 0..size from the three-term recurrence:

    rEu(n,m) = (d*(n-m) + (d-a)) * rEu(n-1,m-1) + (a + d*m) * rEu(n-1,m).
    """
    d, a = prog.d, prog.a
    return _recurrence_triangle(size, lambda n, m: d * (n - m) + (d - a), lambda n, m: a + d * m)


def reu_from_s2fac(prog: Progression, n: int, k: int) -> Fraction:
    """rEu from the factorial-scaled Stirling row:

    rEu(n,k) = sum_j (-1)^(k-j) C(n-j, k-j) S2(n,j) j!.
    """
    if n < 0 or k < 0 or k > n:
        raise OutOfTriangle(f"entry ({n}, {k}) lies outside the triangle")
    s2 = s2_triangle(prog, n)
    acc = Fraction(0)
    for j in range(k + 1):
        sign = -1 if (k - j) % 2 else 1
        acc += sign * math.comb(n - j, k - j) * s2.entry(n, j) * math.factorial(j)
    return acc


def s2fac_from_reu(prog: Progression, n: int, m: int) -> Fraction:
    """Inverse direction: S2(n,m) m! = sum_k C(n-k, m-k) rEu(n,k)."""
    if n < 0 or m < 0 or m > n:
        raise OutOfTriangle(f"entry ({n}, {m}) lies outside the triangle")
    reu = reu_triangle(prog, n)
    acc = Fraction(0)
    for k in range(m + 1):
        acc += math.comb(n - k, m - k) * reu.entry(n, k)
    return acc


def reu_from_ordinary(prog: Progression, n: int, k: int) -> Fraction:
    """rEu[d,a] from the classical row-reversed Eulerian numbers:

    sum_m C(n,m) a^(n-m) d^m sum_p (-1)^(k-p) C(n-m, k-p) rEu(m,p).

    No single-sum analogue exists here; the binomial structure forces the
    double sum.
    """
    if n < 0 or k < 0 or k > n:
        raise OutOfTriangle(f"entry ({n}, {k}) lies outside the triangle")
    classical = reu_triangle(Progression(1, 0), n)
    acc = Fraction(0)
    for m in range(n + 1):
        outer = math.comb(n, m) * integer_power(prog.a, n - m) * prog.d**m
        if outer == 0:
            continue
        inner = Fraction(0)
        for p in range(min(m, k) + 1):
            sign = -1 if (k - p) % 2 else 1
            inner += sign * math.comb(n - m, k - p) * classical.entry(m, p)
        acc += outer * inner
    return acc
