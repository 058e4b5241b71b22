"""Generalized Lah triangles: rising factorials in the falling-factorial basis.

L[d,a] is the triangle product S1phat[d,a] * S2hat[d,a]; as a Sheffer
pair it is ((1 - d*t)^(-2a/d), t/(1 - d*t)).  Its a-sequence is
{1, d, 0, 0, ...}, which yields the three-term recurrence

    L(n,m) = (n/m) L(n-1,m-1) + d*n L(n-1,m),   m >= 1,

with column 0 supplied from the e.g.f. (1 - d*t)^(-2a/d).  A four-term
recurrence with a look-back of two rows follows from the same column
e.g.f.  The inverse matrix is the same triangle with checkerboard signs.

The published form of the three-term recurrence carries coefficient n
instead of d*n on the second term, which contradicts the product
construction whenever d >= 2; ``lah_three_term(..., printed=True)``
evaluates that variant so the verifier can confirm the discrepancy.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import DomainError
from .exact import Progression
from .fps import Fps
from .sheffer import ShefferPair, Triangle
from .stirling import s1phat_triangle, s2hat_triangle

__all__ = [
    "lah_pair",
    "lah_inverse_pair",
    "lah_triangle",
    "lah_sheffer_triangle",
    "lah_four_term",
    "lah_three_term",
    "lah_inverse",
    "lah_inverse_four_term",
    "lah_column0",
]


def lah_pair(prog: Progression, order: int) -> ShefferPair:
    """((1 - d*t)^(-2a/d), t/(1 - d*t))."""
    one_minus_d = Fps([1, -prog.d], order=order)
    g = one_minus_d.pow(Fraction(-2 * prog.a, prog.d))
    f = Fps.x(order) * one_minus_d.reciprocal()
    return ShefferPair(g, f, label=f"lah[{prog.d},{prog.a}]")


def lah_inverse_pair(prog: Progression, order: int) -> ShefferPair:
    """((1 + d*t)^(-2a/d), t/(1 + d*t)), the group inverse of lah_pair."""
    one_plus_d = Fps([1, prog.d], order=order)
    g = one_plus_d.pow(Fraction(-2 * prog.a, prog.d))
    f = Fps.x(order) * one_plus_d.reciprocal()
    return ShefferPair(g, f, label=f"lahinv[{prog.d},{prog.a}]")


def lah_column0(prog: Progression, size: int) -> list[Fraction]:
    """Column m = 0: n! [t^n] (1 - d*t)^(-2a/d), extracted from the series."""
    if size < 0:
        raise DomainError("size must be non-negative")
    g = Fps([1, -prog.d], order=size).pow(Fraction(-2 * prog.a, prog.d))
    return [g.coefficient_times_factorial(n) for n in range(size + 1)]


def _as_lah(tri: Triangle) -> Triangle:
    """``tri`` itself, once every entry is known to be an integer."""
    if not tri.is_integer():
        raise DomainError("Lah triangle produced a non-integer entry")
    return tri


def lah_triangle(prog: Progression, size: int) -> Triangle:
    """L[d,a] rows 0..size by the triangle product S1phat * S2hat."""
    return s1phat_triangle(prog, size).multiply(s2hat_triangle(prog, size))


def lah_sheffer_triangle(prog: Progression, size: int) -> Triangle:
    """L[d,a] materialized directly from its Sheffer pair.

    The pair needs order >= 1 to hold f, even for the single row 0.
    """
    return _as_lah(lah_pair(prog, max(size, 1)).triangle(size))


def _four_term(d: int, a: int, size: int) -> Triangle:
    """Rows 0..size of T(n,m) = T(n-1,m-1) + 2(a + d(n-1)) T(n-1,m)
    - d(n-1)(2a + d(n-2)) T(n-2,m) from T(0,0) = 1, on int."""
    if size < 0:
        raise DomainError("size must be non-negative")
    rows = [[1]]
    for n in range(1, size + 1):
        prev = [0, *rows[n - 1], 0]
        prev2 = [*rows[n - 2], 0, 0] if n >= 2 else [0, 0]
        grow = 2 * (a + d * (n - 1))
        back = d * (n - 1) * (2 * a + d * (n - 2))
        rows.append([prev[m] + grow * prev[m + 1] - back * prev2[m] for m in range(n + 1)])
    return Triangle(rows)


def lah_four_term(prog: Progression, size: int) -> Triangle:
    """L[d,a] from the four-term recurrence

    L(n,m) = L(n-1,m-1) + 2(a + d(n-1)) L(n-1,m)
             - d(n-1)(2a + d(n-2)) L(n-2,m).
    """
    return _four_term(prog.d, prog.a, size)


def lah_three_term(prog: Progression, size: int, printed: bool = False) -> Triangle:
    """L[d,a] from the a-sequence three-term recurrence, for m >= 1:

    L(n,m) = (n/m) L(n-1,m-1) + d*n L(n-1,m),

    with column 0 taken from the e.g.f.  ``printed=True`` swaps the d*n
    coefficient for the published plain n, which is expected to disagree
    with the other routes whenever d >= 2.
    """
    if size < 0:
        raise DomainError("size must be non-negative")
    d = prog.d
    column0 = lah_column0(prog, size)
    rows = [[column0[0]]]
    for n in range(1, size + 1):
        prev = rows[-1]
        row = [column0[n]]
        for m in range(1, n + 1):
            left = prev[m - 1]
            right = prev[m] if m < n else Fraction(0)
            growth = n if printed else d * n
            row.append(Fraction(n, m) * left + growth * right)
        rows.append(row)
    tri = Triangle(rows)
    return tri if printed else _as_lah(tri)


def lah_inverse(prog: Progression, size: int) -> Triangle:
    """L^(-1)[d,a]: checkerboard-signed Lah entries; L * L^(-1) = identity."""
    return lah_triangle(prog, size).signed()


def lah_inverse_four_term(prog: Progression, size: int) -> Triangle:
    """L^(-1) from the four-term recurrence with a -> -a, d -> -d:

    L^(-1)(n,m) = L^(-1)(n-1,m-1) - 2(a + d(n-1)) L^(-1)(n-1,m)
                  - d(n-1)(2a + d(n-2)) L^(-1)(n-2,m).
    """
    return _four_term(-prog.d, -prog.a, size)
