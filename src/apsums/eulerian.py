"""Row-reversed generalized Eulerian triangles and the reordering transform.

The o.g.f. of the powers (a + d*m)^n can be written either as a stack of
terms b_j * x^j / (1-x)^(j+1) or with a single denominator
P(x) / (1-x)^(n+1); :func:`reorder_b_to_a` / :func:`reorder_a_to_b`
convert between the two coefficient systems and are exact inverses.
Applied to the factorial-scaled Stirling row they produce the rEu[d,a]
triangle, stored here in the row-reversed orientation in which all of
its formulas are stated.  The conversion routes are triangle builders
``..._triangle(prog, size)`` that build their input triangle once per
(prog, size).  Integer input stays integer: the reordering returns its
sums as computed, ``int`` for ``int`` coefficients, and
:func:`reu_explicit` gives one entry (n, k) as an ``int``.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from fractions import Fraction

from .errors import DomainError
from .exact import Progression
from .sheffer import Triangle
from .stirling import _recurrence_triangle, _require_in_triangle, s2fac_triangle

__all__ = [
    "reorder_b_to_a",
    "reorder_a_to_b",
    "reu_explicit",
    "reu_triangle",
    "reu_from_s2fac_triangle",
    "s2fac_from_reu_triangle",
    "reu_from_ordinary_triangle",
]


def reorder_b_to_a(b: Sequence[Fraction | int], n: int) -> list[Fraction | int]:
    """From stacked coefficients b_j to single-denominator coefficients a_i:

    a_i = sum_j (-1)^(i-j) C(n-j, i-j) b_j.
    """
    if len(b) != n + 1:
        raise DomainError(f"expected {n + 1} coefficients, got {len(b)}")
    out = []
    for i in range(n + 1):
        acc = 0
        for j in range(i + 1):
            sign = -1 if (i - j) % 2 else 1
            acc += sign * math.comb(n - j, i - j) * b[j]
        out.append(acc)
    return out


def reorder_a_to_b(a: Sequence[Fraction | int], n: int) -> list[Fraction | int]:
    """Exact inverse of :func:`reorder_b_to_a`:

    b_j = sum_i C(n-i, j-i) a_i.
    """
    if len(a) != n + 1:
        raise DomainError(f"expected {n + 1} coefficients, got {len(a)}")
    out = []
    for j in range(n + 1):
        acc = 0
        for i in range(j + 1):
            acc += math.comb(n - i, j - i) * a[i]
        out.append(acc)
    return out


def reu_explicit(prog: Progression, n: int, k: int) -> int:
    """rEu(d,a;n,k) = sum_j (-1)^(k-j) C(n+1, k-j) (a + d*j)^n."""
    _require_in_triangle(n, k)
    acc = 0
    for j in range(k + 1):
        sign = -1 if (k - j) % 2 else 1
        acc += sign * math.comb(n + 1, k - j) * prog.term(j) ** n
    return acc


def reu_triangle(prog: Progression, size: int) -> Triangle:
    """rEu[d,a] rows 0..size from the three-term recurrence:

    rEu(n,m) = (d*(n-m) + (d-a)) * rEu(n-1,m-1) + (a + d*m) * rEu(n-1,m).
    """
    d, a = prog.d, prog.a
    return _recurrence_triangle(size, lambda n, m: d * (n - m) + (d - a), lambda n, m: a + d * m)


def reu_from_s2fac_triangle(prog: Progression, size: int) -> Triangle:
    """rEu rows 0..size from the factorial-scaled Stirling rows, each row
    reordered once through :func:`reorder_b_to_a`:

    rEu(n,k) = sum_j (-1)^(k-j) C(n-j, k-j) S2(n,j) j!.

    The classical row S2fac(2, .) = [0, 1, 2] gives [0, 1, 1]:

    >>> reu_from_s2fac_triangle(Progression(1, 0), 2).row(2)
    (0, 1, 1)
    """
    return Triangle(reorder_b_to_a(row, n) for n, row in enumerate(s2fac_triangle(prog, size).rows))


def s2fac_from_reu_triangle(prog: Progression, size: int) -> Triangle:
    """Inverse direction, each rEu row reordered once through :func:`reorder_a_to_b`:
    S2(n,m) m! = sum_k C(n-k, m-k) rEu(n,k).

    >>> s2fac_from_reu_triangle(Progression(1, 0), 2).row(2)
    (0, 1, 2)
    """
    return Triangle(reorder_a_to_b(row, n) for n, row in enumerate(reu_triangle(prog, size).rows))


def reu_from_ordinary_triangle(prog: Progression, size: int) -> Triangle:
    """rEu[d,a] rows 0..size from the classical row-reversed Eulerian numbers,
    over one classical triangle, in int:

    sum_m C(n,m) a^(n-m) d^m sum_p (-1)^(k-p) C(n-m, k-p) rEu(m,p).

    No single-sum analogue exists here; the binomial structure forces the
    double sum.
    """
    classical = reu_triangle(Progression(1, 0), size)
    a_powers = [prog.a**i for i in range(size + 1)]  # 0 ** 0 == 1
    d_powers = [prog.d**i for i in range(size + 1)]
    rows = []
    for n in range(size + 1):
        row = []
        for k in range(n + 1):
            acc = 0
            for m in range(n + 1):
                outer = math.comb(n, m) * a_powers[n - m] * d_powers[m]
                if outer == 0:
                    continue
                inner = 0
                for p in range(min(m, k) + 1):
                    sign = -1 if (k - p) % 2 else 1
                    inner += sign * math.comb(n - m, k - p) * classical.entry(m, p)
                acc += outer * inner
            row.append(acc)
        rows.append(row)
    return Triangle(rows)
