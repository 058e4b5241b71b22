"""Exponential-convolution (Sheffer) pairs and finite lower-triangular arrays.

A pair (g, f) with g(0) != 0, f(0) = 0, f'(0) != 0 generates a lower
triangular array whose column-m e.g.f. is g * f^m / m!; entry (n, m) is
n! times the t^n coefficient of that column.  The pairs form a group:

    (g1, f1) * (g2, f2) = (g1 * (g2 o f1), f2 o f1)
    (g, f)^-1           = (1/(g o f^[-1]), f^[-1])

and the triangle of a product is the matrix product of the triangles.

:class:`Triangle` is the materialized N x N array.  It holds entries and
nothing else, so triangles built along different routes compare equal
exactly when their entries do.  The triangle product and the triangle
inverse bring their operands to integer numerators over one common
denominator, and the pair materialization reads the numerator pairs that
its two series already store; all three sum in ``int`` and divide once per
entry.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable
from fractions import Fraction

from .errors import DomainError
from .exact import _FrozenRecord, _common_denominator, _mul_ints, rational_str
from .fps import Fps
from .poly import Polynomial

__all__ = ["ShefferPair", "Triangle", "identity_triangle"]

_ZERO = Fraction(0)


class Triangle:
    """Finite lower-triangular array of exact rationals, rows 0..N.

    Entries are stored as given: the integer families built from integer
    recurrences hold ``int``, everything else holds ``Fraction``, and no
    entry is ever a float.  ``int`` and ``Fraction`` compare, hash and
    print alike, so triangles from different routes compare bit-exactly.
    A triangle carries no family name or progression: the caller that
    built it already knows both.
    """

    __slots__ = ("_rows",)

    def __init__(self, rows: Iterable[Iterable[Fraction | int]]):
        converted = []
        for n, row in enumerate(rows):
            row = tuple(row)
            if len(row) != n + 1:
                raise DomainError(f"row {n} must have {n + 1} entries, got {len(row)}")
            converted.append(row)
        if not converted:
            raise DomainError("a triangle needs at least row 0")
        self._rows = tuple(converted)

    @property
    def rows(self) -> tuple[tuple[Fraction | int, ...], ...]:
        return self._rows

    @property
    def size(self) -> int:
        """Largest row index N."""
        return len(self._rows) - 1

    def entry(self, n: int, m: int) -> Fraction | int:
        """Entry (n, m); entries above the diagonal are zero."""
        if n < 0 or m < 0 or n > self.size:
            raise DomainError(f"row {n}, column {m} outside triangle of size {self.size}")
        if m > n:
            return _ZERO
        return self._rows[n][m]

    def row(self, n: int) -> tuple[Fraction | int, ...]:
        if n < 0 or n > self.size:
            raise DomainError(f"row {n} outside triangle of size {self.size}")
        return self._rows[n]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Triangle):
            return NotImplemented
        return self._rows == other._rows

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Triangle(size={self.size})"

    def text(self, sep: str = " ") -> str:
        """One row per line, canonical rationals, entries joined by ``sep``."""
        return "\n".join(sep.join(rational_str(c) for c in row) for row in self._rows)

    def row_polynomial(self, n: int) -> Polynomial:
        """sum_m entry(n, m) * x^m."""
        return Polynomial(self.row(n))

    def signed(self) -> Triangle:
        """Checkerboard signs: entry (n, m) times (-1)^(n-m)."""
        return Triangle(
            [
                [c if (n - m) % 2 == 0 else -c for m, c in enumerate(row)]
                for n, row in enumerate(self._rows)
            ]
        )

    def unsigned(self) -> Triangle:
        return Triangle([[abs(c) for c in row] for row in self._rows])

    def multiply(self, other: Triangle) -> Triangle:
        """Exact triangular matrix product; sizes must match.

        Each factor goes to integer numerators over one common denominator,
        each entry sums in ``int`` and is divided once.  The product holds
        ``int`` when both factors hold only ``int``, ``Fraction`` otherwise.

        >>> from apsums.exact import Progression
        >>> from apsums.stirling import s1_triangle, s2_triangle
        >>> print(s2_triangle(Progression(2, 1), 2).multiply(s1_triangle(Progression(2, 1), 2)).text())
        1
        0 1
        0 0 1
        """
        if self.size != other.size:
            raise DomainError(f"size mismatch: {self.size} vs {other.size}")
        left, left_den = _flat_numerators(self._rows)
        right, right_den = _flat_numerators(other._rows)
        columns = [[row[m] for row in right[m:]] for m in range(self.size + 1)]
        rows = [
            [sum(map(operator.mul, row[m:], columns[m])) for m in range(n + 1)]
            for n, row in enumerate(left)
        ]
        if left_den is None and right_den is None:
            return Triangle(rows)
        den = (left_den or 1) * (right_den or 1)
        return Triangle([Fraction(c, den) for c in row] for row in rows)

    def inverse(self) -> Triangle:
        """Inverse by forward substitution; needs a nonzero diagonal.

        With the entries as numerators N over one denominator D, the inverse
        is D N^-1.  Column m of N^-1 is carried in ``int`` as
        Y_n = X_n * P_n, P_n = prod_{k=m..n} N_kk, which is an integer by
        Cramer's rule: Y_m = 1 and Y_n = -sum_{k=m..n-1} N_nk Y_k P_(n-1)/P_k,
        summed by Horner over the diagonal.  Each entry is one
        ``Fraction(D Y_n, P_n)``.
        """
        for n in range(self.size + 1):
            if self._rows[n][n] == 0:
                raise DomainError(f"zero diagonal entry at row {n}")
        nums, den = _flat_numerators(self._rows)
        den = den or 1
        diag = [row[n] for n, row in enumerate(nums)]
        inv: list[list[Fraction]] = [[_ZERO] * (n + 1) for n in range(self.size + 1)]
        for m in range(self.size + 1):
            ys = [1]
            scale = diag[m]
            inv[m][m] = Fraction(den, scale)
            for n in range(m + 1, self.size + 1):
                row = nums[n]
                acc = 0
                for k, y in enumerate(ys, m):
                    acc = acc * diag[k] + row[k] * y
                ys.append(-acc)
                scale *= diag[n]
                inv[n][m] = Fraction(-acc * den, scale)
        return Triangle(inv)


def _flat_numerators(rows: tuple[tuple[Fraction | int, ...], ...]) -> tuple[list[list[int]], int | None]:
    """Rows of integer numerators over one common denominator.

    The denominator is ``None`` when every entry is an ``int``, so that a
    product of two integer triangles stays in ``int``.
    """
    flat = [c for row in rows for c in row]
    if all(type(c) is int for c in flat):
        return [list(row) for row in rows], None
    nums, den = _common_denominator(flat)
    start = [n * (n + 1) // 2 for n in range(len(rows))]
    return [nums[s : s + n + 1] for n, s in enumerate(start)], den


def identity_triangle(size: int) -> Triangle:
    return Triangle([[1 if m == n else 0 for m in range(n + 1)] for n in range(size + 1)])


class ShefferPair(_FrozenRecord):
    """A pair (g, f) of truncated series generating an exponential array."""

    __slots__ = ("g", "f")

    def __init__(self, g: Fps, f: Fps) -> None:
        if g._nums[0] == 0:
            raise DomainError("g must have a nonzero constant term")
        if f.order < 1 or f._nums[0] != 0 or f._nums[1] == 0:
            raise DomainError("f must have a simple zero at the origin")
        self._set(g, f)

    @property
    def order(self) -> int:
        return min(self.g.order, self.f.order)

    def triangle(self, size: int) -> Triangle:
        """Materialize rows 0..size; the series must carry order >= size."""
        if size < 0:
            raise DomainError("size must be non-negative")
        if self.order < size:
            raise DomainError(
                f"series order {self.order} too small for a size-{size} triangle"
            )
        column, den = self.g._nums[: size + 1], self.g._den
        f, f_den = self.f._nums, self.f._den
        rows = [[_ZERO] * (n + 1) for n in range(size + 1)]
        for m in range(size + 1):
            if m > 0:
                # column m is g * f^m / m! with numerators over g_den * f_den^m * m!
                column = _mul_ints(column, f, size)
                den *= f_den * m
            for n in range(m, size + 1):
                rows[n][m] = Fraction(column[n] * math.factorial(n), den)
        return Triangle(rows)

    def multiply(self, other: ShefferPair) -> ShefferPair:
        """Group product: (g1 * (g2 o f1), f2 o f1)."""
        g3 = self.g * other.g.compose(self.f)
        f3 = other.f.compose(self.f)
        return ShefferPair(g3, f3)

    def inverse(self) -> ShefferPair:
        """Group inverse: (1/(g o f^[-1]), f^[-1])."""
        finv = self.f.reverse()
        ginv = self.g.compose(finv).reciprocal()
        return ShefferPair(ginv, finv)

    def a_z_sequences(self, order: int) -> tuple[Fps, Fps]:
        """The a- and z-series a(y) = y/f^[-1](y), z(y) = (1 - 1/(g o f^[-1]))/f^[-1].

        Both are ordinary generating functions in y, truncated at ``order``.
        Requires g(0) = 1, otherwise the z-series would have a pole at 0.
        """
        if order < 0:
            raise DomainError("order must be non-negative")
        if self.order < order + 1:
            raise DomainError(
                f"series order {self.order} too small for a/z sequences at order {order}"
            )
        if self.g._nums[0] != self.g._den:
            raise DomainError("a/z sequences need g(0) = 1")
        finv = self.f.truncated(order + 1).reverse()
        a_seq = finv.shifted_down(1).reciprocal()
        g_at_finv = self.g.truncated(order + 1).compose(finv)
        z_numer = (Fps.one(order + 1) - g_at_finv.reciprocal()).shifted_down(1)
        z_seq = a_seq * z_numer
        return a_seq.truncated(order), z_seq.truncated(order)
