"""Exact scalars and arithmetic-progression primitives.

Every quantity in this package is an exact rational, never a float.  The
integer triangle families (s2, s2hat, s2fac, s1phat, reu, lah, lahinv)
come from integer recurrences and hold plain ``int``; everything else
holds :class:`fractions.Fraction`, which keeps the canonical reduced
form gcd(num, den) = 1 with den >= 1 that bit-exact comparison relies
on.  An ``int`` equals the ``Fraction`` of the same value.  :func:`rational_str` gives the canonical text form
``p/q`` of either type, with ``/q`` omitted when q = 1, and every
exporter uses it verbatim.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import DomainError

__all__ = [
    "Progression",
    "rational_str",
    "binomial_general",
    "integer_power",
    "fallfac",
    "risefac",
]


def rational_str(value: Fraction | int) -> str:
    """Canonical text form ``p/q`` (bare ``p`` when the denominator is 1)."""
    return str(Fraction(value))


@dataclass(frozen=True)
class Progression:
    """Arithmetic progression a, a+d, a+2d, ... with step d >= 1, offset a >= 0.

    gcd(a, d) = 1 is deliberately not required: every identity in this
    package holds for arbitrary a >= 0, and the wider domain gives the
    cross-checks more surface.
    """

    d: int
    a: int = 0

    def __post_init__(self) -> None:
        # bool subclasses int, so True/False would pass as 1/0 unnoticed
        if isinstance(self.d, bool) or not isinstance(self.d, int) or self.d < 1:
            raise DomainError(f"common difference d must be a positive integer, got {self.d!r}")
        if isinstance(self.a, bool) or not isinstance(self.a, int) or self.a < 0:
            raise DomainError(f"initial term a must be a non-negative integer, got {self.a!r}")

    def term(self, j: int) -> int:
        """The j-th progression member a + d*j."""
        return self.a + self.d * j


def binomial_general(r: int, k: int) -> int:
    """Binomial coefficient for any integer upper argument.

    Returns 0 for k < 0.  For k >= 0 this is the falling-factorial
    quotient r(r-1)...(r-k+1)/k!, so a negative upper argument gives
    binomial_general(r, k) = (-1)^k * binomial(k-1-r, k).
    """
    if k < 0:
        return 0
    if r >= 0:
        return math.comb(r, k)
    return (-1) ** k * math.comb(k - 1 - r, k)


def integer_power(base: Fraction | int, n: int) -> Fraction:
    """base**n for n >= 0 with the convention 0**0 = 1."""
    if n < 0:
        raise DomainError(f"exponent must be non-negative, got {n}")
    return Fraction(base) ** n


def fallfac(prog: Progression, x: Fraction | int, m: int) -> Fraction:
    """Generalized falling factorial: product of (x - (a + j*d)) for j < m.

    The empty product (m = 0) is 1.  Satisfies
    fallfac(d,a; x, m) = d^m * fallfac(1,0; (x-a)/d, m).

    >>> print(fallfac(Progression(1, 0), 4, 2))   # 4 * 3
    12
    >>> print(fallfac(Progression(2, 1), 6, 3))   # (6-1)(6-3)(6-5)
    15
    """
    if m < 0:
        raise DomainError(f"length must be non-negative, got {m}")
    x = Fraction(x)
    out = Fraction(1)
    for j in range(m):
        out *= x - prog.term(j)
    return out


def risefac(prog: Progression, x: Fraction | int, n: int) -> Fraction:
    """Generalized rising factorial: product of (x + (a + j*d)) for j < n.

    The empty product (n = 0) is 1.  Dual to the falling version:
    risefac(d,a; x, n) = (-1)^n * fallfac(d,a; -x, n).
    """
    if n < 0:
        raise DomainError(f"length must be non-negative, got {n}")
    x = Fraction(x)
    out = Fraction(1)
    for j in range(n):
        out *= x + prog.term(j)
    return out
