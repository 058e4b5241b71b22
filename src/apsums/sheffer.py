"""Exponential-convolution (Sheffer) pairs and finite lower-triangular arrays.

A pair (g, f) with g(0) != 0, f(0) = 0, f'(0) != 0 generates a lower
triangular array whose column-m e.g.f. is g * f^m / m!; entry (n, m) is
n! times the t^n coefficient of that column.  The pairs form a group:

    (g1, f1) * (g2, f2) = (g1 * (g2 o f1), f2 o f1)
    (g, f)^-1           = (1/(g o f^[-1]), f^[-1])

and the triangle of a product is the matrix product of the triangles.

:class:`Triangle` is the materialized N x N array.  It holds entries and
nothing else, so triangles built along different routes compare equal
exactly when their entries do.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable

from .errors import DomainError, InsufficientOrder, ShapeError, SingularTriangle
from .exact import rational_str
from .fps import Fps
from .poly import Polynomial

__all__ = ["ShefferPair", "Triangle", "identity_pair", "identity_triangle"]

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
                raise ShapeError(f"row {n} must have {n + 1} entries, got {len(row)}")
            converted.append(row)
        if not converted:
            raise ShapeError("a triangle needs at least row 0")
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

    def is_integer(self) -> bool:
        return all(c.denominator == 1 for row in self._rows for c in row)

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
        """Exact triangular matrix product; sizes must match."""
        if self.size != other.size:
            raise ShapeError(f"size mismatch: {self.size} vs {other.size}")
        rows = []
        for n in range(self.size + 1):
            row = []
            for m in range(n + 1):
                acc = 0
                for k in range(m, n + 1):
                    acc += self._rows[n][k] * other._rows[k][m]
                row.append(acc)
            rows.append(row)
        return Triangle(rows)

    def inverse(self) -> Triangle:
        """Inverse by forward substitution; needs a nonzero diagonal."""
        for n in range(self.size + 1):
            if self._rows[n][n] == 0:
                raise SingularTriangle(f"zero diagonal entry at row {n}")
        inv: list[list[Fraction]] = []
        for n in range(self.size + 1):
            row = [_ZERO] * (n + 1)
            row[n] = Fraction(1) / self._rows[n][n]
            for m in range(n - 1, -1, -1):
                acc = _ZERO
                for k in range(m, n):
                    acc += self._rows[n][k] * inv[k][m]
                row[m] = -acc / self._rows[n][n]
            inv.append(row)
        return Triangle(inv)


def identity_triangle(size: int) -> Triangle:
    return Triangle([[1 if m == n else 0 for m in range(n + 1)] for n in range(size + 1)])


@dataclass(frozen=True)
class ShefferPair:
    """A pair (g, f) of truncated series generating an exponential array."""

    g: Fps
    f: Fps
    label: str = ""

    def __post_init__(self) -> None:
        if self.g[0] == 0:
            raise DomainError("g must have a nonzero constant term")
        if self.f.order < 1 or self.f[0] != 0 or self.f[1] == 0:
            raise DomainError("f must have a simple zero at the origin")

    @property
    def order(self) -> int:
        return min(self.g.order, self.f.order)

    def element(self, n: int, m: int) -> Fraction:
        """Entry (n, m): n! times the t^n coefficient of g * f^m / m!."""
        if n < 0 or m < 0:
            raise DomainError("indices must be non-negative")
        if n > self.order:
            raise InsufficientOrder(f"entry ({n}, {m}) beyond series order {self.order}")
        if m > n:
            return _ZERO
        column = self.g.truncated(n)
        fn = self.f.truncated(n)
        for j in range(1, m + 1):
            column = column * fn / j
        return column.coefficient_times_factorial(n)

    def triangle(self, size: int) -> Triangle:
        """Materialize rows 0..size; the series must carry order >= size."""
        if size < 0:
            raise DomainError("size must be non-negative")
        if self.order < size:
            raise InsufficientOrder(
                f"series order {self.order} too small for a size-{size} triangle"
            )
        g = self.g.truncated(size)
        f = self.f.truncated(size)
        rows = [[_ZERO] * (n + 1) for n in range(size + 1)]
        column = g
        for m in range(size + 1):
            if m > 0:
                column = column * f / m
            for n in range(m, size + 1):
                rows[n][m] = column.coefficient_times_factorial(n)
        return Triangle(rows)

    def multiply(self, other: ShefferPair) -> ShefferPair:
        """Group product: (g1 * (g2 o f1), f2 o f1)."""
        g3 = self.g * other.g.compose(self.f)
        f3 = other.f.compose(self.f)
        label = f"({self.label})*({other.label})" if self.label or other.label else ""
        return ShefferPair(g3, f3, label)

    def inverse(self) -> ShefferPair:
        """Group inverse: (1/(g o f^[-1]), f^[-1])."""
        finv = self.f.reverse()
        ginv = self.g.compose(finv).reciprocal()
        label = f"({self.label})^-1" if self.label else ""
        return ShefferPair(ginv, finv, label)

    def a_z_sequences(self, order: int) -> tuple[Fps, Fps]:
        """The a- and z-series a(y) = y/f^[-1](y), z(y) = (1 - 1/(g o f^[-1]))/f^[-1].

        Both are ordinary generating functions in y, truncated at ``order``.
        Requires g(0) = 1, otherwise the z-series would have a pole at 0.
        """
        if order < 0:
            raise DomainError("order must be non-negative")
        if self.order < order + 1:
            raise InsufficientOrder(
                f"series order {self.order} too small for a/z sequences at order {order}"
            )
        if self.g[0] != 1:
            raise DomainError("a/z sequences need g(0) = 1")
        finv = self.f.truncated(order + 1).reverse()
        a_seq = finv.shifted_down(1).reciprocal()
        g_at_finv = self.g.truncated(order + 1).compose(finv)
        z_numer = (Fps.one(order + 1) - g_at_finv.reciprocal()).shifted_down(1)
        z_seq = a_seq * z_numer
        return a_seq.truncated(order), z_seq.truncated(order)


def identity_pair(order: int) -> ShefferPair:
    """The group identity (1, t)."""
    return ShefferPair(Fps.one(order), Fps.x(order), label="identity")
