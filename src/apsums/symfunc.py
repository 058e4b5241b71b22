"""Symmetric functions over an arithmetic-progression alphabet.

The alphabet is a_j = a + j*d for j = 0..count-1.  Elementary symmetric
functions come from the coefficient expansion of prod (1 + a_j x),
complete homogeneous ones from the truncated expansion of
prod 1/(1 - a_j x).  A brute-force hyper-cuboid volume enumerator serves
as an independent oracle for both: it literally sums the volumes of all
boxes whose side lengths are drawn from the alphabet (distinct sides for
the elementary case, repetition allowed for the complete case).

Every symbol is an integer, so all three expand and sum on plain ``int``
coefficient lists and convert only the result, which is a ``Fraction``.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations, combinations_with_replacement

from .errors import DomainError
from .exact import Progression, _FrozenRecord

__all__ = ["Alphabet", "elementary_sigma", "complete_h", "cuboid_volume_oracle"]

# The enumeration oracle is exponential; keep it at desk scale.
_ORACLE_MAX_COUNT = 8
_ORACLE_MAX_DEGREE = 8


class Alphabet(_FrozenRecord):
    """The first ``count`` members of an arithmetic progression."""

    __slots__ = ("prog", "count")

    def __init__(self, prog: Progression, count: int) -> None:
        if isinstance(count, bool) or not isinstance(count, int) or count < 0:
            raise DomainError(f"count must be a non-negative integer, got {count!r}")
        self._set(prog, count)

    @property
    def symbols(self) -> tuple[int, ...]:
        return tuple(self.prog.term(j) for j in range(self.count))


def elementary_sigma(alphabet: Alphabet, degree: int) -> Fraction:
    """Sum of all degree-sized distinct products; sigma_0 = 1.

    Three of the four odd numbers 1, 3, 5, 7 at a time: the volumes of the
    four boxes 1*3*5, 1*3*7, 1*5*7 and 3*5*7.

    >>> elementary_sigma(Alphabet(Progression(2, 1), 4), 3)
    Fraction(176, 1)
    """
    if degree < 0 or degree > alphabet.count:
        raise DomainError(
            f"degree {degree} outside 0..{alphabet.count} for elementary symmetric function"
        )
    # coefficients of prod (1 + a_j x), multiplied in one factor at a time
    coeffs = [1]
    for symbol in alphabet.symbols:
        coeffs = [c + symbol * p for c, p in zip(coeffs + [0], [0] + coeffs)]
    return Fraction(coeffs[degree])


def complete_h(alphabet: Alphabet, degree: int) -> Fraction:
    """Sum of all degree-sized multiset products; h_0 = 1.

    Squares built from the sides 2 and 5: 2*2 + 2*5 + 5*5.

    >>> complete_h(Alphabet(Progression(3, 2), 2), 2)
    Fraction(39, 1)
    """
    if degree < 0:
        raise DomainError(f"degree must be non-negative, got {degree}")
    # prod 1/(1 - a_j x) up to x^degree, one factor at a time: dividing by
    # (1 - a_j x) is h[k] += a_j * h[k-1] in increasing k, in place
    coeffs = [1] + [0] * degree
    for symbol in alphabet.symbols:
        for k in range(1, degree + 1):
            coeffs[k] += symbol * coeffs[k - 1]
    return Fraction(coeffs[degree])


def cuboid_volume_oracle(alphabet: Alphabet, dimension: int, distinct: bool = False) -> Fraction:
    """Total volume of all dimension-d boxes with sides from the alphabet.

    Explicit enumeration: subsets when ``distinct``, multisets otherwise.
    The number of boxes is checked against the closed count (binomial or
    multichoose) before the volumes are summed.
    """
    if dimension < 0:
        raise DomainError(f"dimension must be non-negative, got {dimension}")
    if alphabet.count > _ORACLE_MAX_COUNT or dimension > _ORACLE_MAX_DEGREE:
        raise DomainError(
            f"oracle capped at {_ORACLE_MAX_COUNT} symbols / degree {_ORACLE_MAX_DEGREE}"
        )
    if distinct:
        if dimension > alphabet.count:
            raise DomainError(
                f"no {dimension}-dimensional box with distinct sides from "
                f"{alphabet.count} symbols"
            )
        boxes = list(combinations(alphabet.symbols, dimension))
        expected = math.comb(alphabet.count, dimension)
    else:
        boxes = list(combinations_with_replacement(alphabet.symbols, dimension))
        expected = 1 if dimension == 0 else math.comb(alphabet.count + dimension - 1, dimension)
    if len(boxes) != expected:
        raise AssertionError("enumeration miscounted its boxes")  # pragma: no cover
    return Fraction(sum(math.prod(sides) for sides in boxes))
