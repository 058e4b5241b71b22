"""Exponential-convolution (Sheffer) pairs and finite lower-triangular arrays.

A pair (g, f) with g(0) != 0, f(0) = 0, f'(0) != 0 generates a lower
triangular array whose column-m e.g.f. is g * f^m / m!; entry (n, m) is
n! times the t^n coefficient of that column.  The pairs form a group:

    (g1, f1) * (g2, f2) = (g1 * (g2 o f1), f2 o f1)
    (g, f)^-1           = (1/(g o f^[-1]), f^[-1])

and the triangle of a product is the matrix product of the triangles.

:class:`Triangle` is the materialized N x N array.  It holds entries and
nothing else, so triangles built along different routes compare equal
exactly when their entries do.  It stores them as one canonical pair of
integer numerator rows and one denominator per row (none for an integer
triangle), and that pair is all it stores.  The sign flips read and build
pairs; the triangle product, the triangle inverse and the pair
materialization, which reads the numerator pairs that its two series
already store, sum in ``int`` and reduce once per row.  The ``Fraction``
entries of a fractional triangle are built on each read, and the text
forms are printed from the pairs through ``exact._texts``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Iterator, Sequence
from fractions import Fraction
from itertools import accumulate, repeat

from .errors import DomainError
from .exact import _EXACT_TYPES, _FrozenRecord, _fractions, _mul_ints, _ratio, _reduced, _texts
from .fps import Fps
from .poly import Polynomial, _poly

__all__ = ["ShefferPair", "Triangle", "identity_triangle"]

_ZERO = Fraction(0)

# Rows of integer numerators; with a tuple of row denominators (or None for
# an integer triangle) they make the pair that a Triangle stores.
_Rows = tuple[tuple[int, ...], ...]


class Triangle:
    """Finite lower-triangular array of exact rationals, rows 0..N.

    A triangle stores one canonical pair ``(nums, dens)``: ``nums`` is a
    tuple of integer rows, and ``dens`` is ``None`` exactly when every entry
    is an ``int``; otherwise it holds one denominator per row, den >= 1 with
    gcd(den, *row) = 1, and entry (n, m) is nums[n][m] / dens[n].  Equal
    values therefore hold equal pairs (an integer row of ``None`` is the
    row over 1), and ``==`` compares pairs.  An integer triangle hands out
    its stored tuples of ``int``; a fractional one builds the ``Fraction``
    entries that are read, on each read, and every entry it hands out is a
    ``Fraction``.  No entry is ever a float.  A triangle carries no family
    name or progression: the caller that built it already knows both.
    """

    __slots__ = ("_nums", "_dens")

    def __init__(self, rows: Iterable[Iterable[Fraction | int]]):
        given = []
        kinds: set[type] = set()
        for n, row in enumerate(rows):
            row = tuple(row)
            if len(row) != n + 1:
                raise DomainError(f"row {n} must have {n + 1} entries, got {len(row)}")
            given.append(row)
            kinds.update(map(type, row))
        if not given:
            raise DomainError("a triangle needs at least row 0")
        if kinds == {int}:
            self._nums, self._dens = tuple(given), None
            return
        exact = kinds <= _EXACT_TYPES  # anything else goes through _ratio's checks
        nums, dens = [], []
        for row in given:
            ratios = [c.as_integer_ratio() for c in row] if exact else [_ratio(c) for c in row]
            # reduced entries over their least common denominator are already canonical
            den = math.lcm(*[q for _, q in ratios])
            nums.append(tuple([p * (den // q) for p, q in ratios] if den > 1 else [p for p, _ in ratios]))
            dens.append(den)
        self._nums, self._dens = tuple(nums), tuple(dens)

    @property
    def rows(self) -> tuple[tuple[Fraction | int, ...], ...]:
        if self._dens is None:
            return self._nums
        return tuple(map(_fractions, self._nums, self._dens))

    @property
    def size(self) -> int:
        """Largest row index N."""
        return len(self._nums) - 1

    def entry(self, n: int, m: int) -> Fraction | int:
        """Entry (n, m); entries above the diagonal are zero."""
        if n < 0 or m < 0 or n > self.size:
            raise DomainError(f"row {n}, column {m} outside triangle of size {self.size}")
        if m > n:
            return _ZERO
        c = self._nums[n][m]
        return c if self._dens is None else Fraction(c, self._dens[n])

    def _row_pair(self, n: int) -> tuple[tuple[int, ...], int]:
        """Row n's numerators and denominator."""
        if n < 0 or n > self.size:
            raise DomainError(f"row {n} outside triangle of size {self.size}")
        return self._nums[n], 1 if self._dens is None else self._dens[n]

    def row(self, n: int) -> tuple[Fraction | int, ...]:
        nums, den = self._row_pair(n)
        return nums if self._dens is None else _fractions(nums, den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Triangle):
            return NotImplemented
        if self._nums != other._nums:
            return False
        if self._dens is None or other._dens is None:
            dens = self._dens or other._dens or ()
            return all(den == 1 for den in dens)
        return self._dens == other._dens

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Triangle(size={self.size})"

    def row_texts(self) -> Iterator[list[str]]:
        """Each row as the canonical text ``p/q`` (bare ``p`` when q = 1) of its
        entries, the text ``exact.rational_str`` gives, printed from the pair."""
        return map(_texts, self._nums, self._dens or repeat(1))

    def text(self, sep: str = " ") -> str:
        """One row per line, canonical rationals, entries joined by ``sep``."""
        return "\n".join(map(sep.join, self.row_texts()))

    def row_polynomial(self, n: int) -> Polynomial:
        """sum_m entry(n, m) * x^m, built from row n's pair."""
        nums, den = self._row_pair(n)
        return _poly(list(nums), den)

    def signed(self) -> Triangle:
        """Checkerboard signs: entry (n, m) times (-1)^(n-m)."""
        return _triangle(
            tuple(
                tuple([-c if (n - m) & 1 else c for m, c in enumerate(row)])
                for n, row in enumerate(self._nums)
            ),
            self._dens,
        )

    def unsigned(self) -> Triangle:
        return _triangle(tuple(tuple(map(abs, row)) for row in self._nums), self._dens)

    def multiply(self, other: Triangle) -> Triangle:
        """Exact triangular matrix product; sizes must match.

        Row n of the product sums in ``int``: with the right factor's row
        denominators e_k brought to E_n = lcm(e_0..e_n) by scaling the left
        row's entries k by E_n/e_k, row n is the integer products over
        d_n E_n, for the left row's denominator d_n, reduced once.  The
        product holds ``int`` when both factors do, ``Fraction`` otherwise.

        >>> from apsums.exact import Progression
        >>> from apsums.stirling import s1_triangle, s2_triangle
        >>> print(s2_triangle(Progression(2, 1), 2).multiply(s1_triangle(Progression(2, 1), 2)).text())
        1
        0 1
        0 0 1
        """
        if self.size != other.size:
            raise DomainError(f"size mismatch: {self.size} vs {other.size}")
        right = other._nums
        columns = [[row[m] for row in right[m:]] for m in range(self.size + 1)]

        def product(left: Iterable[Sequence[int]]) -> list[list[int]]:
            return [[sum(map(operator.mul, row[m:], columns[m])) for m in range(n + 1)]
                    for n, row in enumerate(left)]

        if self._dens is None and other._dens is None:
            return _triangle(tuple(map(tuple, product(self._nums))), None)
        left_dens = self._dens or (1,) * len(right)
        right_dens = other._dens or (1,) * len(right)
        lcms = list(accumulate(right_dens, math.lcm))
        scaled = [[c * (lcms[n] // e) for c, e in zip(row, right_dens)] for n, row in enumerate(self._nums)]
        return _reduced_triangle(product(scaled), map(operator.mul, left_dens, lcms))

    def inverse(self) -> Triangle:
        """Inverse by forward substitution; needs a nonzero diagonal.

        With the entries as integer rows N over the row denominators
        D = diag(d_n), the triangle is D^-1 N and its inverse is N^-1 D.
        Column m of N^-1 is carried in ``int`` as Y_n = X_n * P(m..n),
        P(m..n) = prod_{k=m..n} N_kk, which is an integer by Cramer's rule:
        Y_m = 1 and Y_n = -sum_{k=m..n-1} N_nk Y_k P(m..n-1)/P(m..k), summed
        by Horner over the diagonal.  Row n is then the integers
        Y_n d_m P(0..m-1) over P(0..n), reduced once.
        """
        nums, size = self._nums, self.size
        for n in range(size + 1):
            if nums[n][n] == 0:
                raise DomainError(f"zero diagonal entry at row {n}")
        dens = self._dens or (1,) * (size + 1)
        diag = [row[n] for n, row in enumerate(nums)]
        prefix = [1]  # prefix[m] = P(0..m-1)
        for c in diag:
            prefix.append(prefix[-1] * c)
        inv = [[0] * (n + 1) for n in range(size + 1)]
        for m in range(size + 1):
            ys = [1]
            lead = dens[m] * prefix[m]
            inv[m][m] = lead
            for n in range(m + 1, size + 1):
                row = nums[n]
                acc = 0
                for k, y in enumerate(ys, m):
                    acc = acc * diag[k] + row[k] * y
                ys.append(-acc)
                inv[n][m] = -acc * lead
        return _reduced_triangle(inv, prefix[1:])


def _triangle(nums: _Rows, dens: tuple[int, ...] | None) -> Triangle:
    """The triangle of a pair the caller vouches is canonical: row n of
    ``nums`` is a tuple of n + 1 ``int``, and ``dens`` is ``None`` or one
    denominator per row with den >= 1 and gcd(den, *row) = 1."""
    tri = object.__new__(Triangle)
    tri._nums, tri._dens = nums, dens
    return tri


def _reduced_triangle(rows: Iterable[Sequence[int]], dens: Iterable[int]) -> Triangle:
    """The triangle of the values rows[n][m] / dens[n], each row brought to
    canonical form with one gcd; a denominator may be negative but not zero."""
    nums, reduced = zip(*map(_reduced, rows, dens))
    return _triangle(nums, reduced)


def identity_triangle(size: int) -> Triangle:
    rows = tuple(tuple([1 if m == n else 0 for m in range(n + 1)]) for n in range(size + 1))
    return _triangle(rows, None)


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
        # column m is g * f^m over g_den * f_den^m; entry (n, m) is n!/m! times
        # its t^n numerator, and over row n's denominator g_den * f_den^n it
        # gains f_den^(n-m)
        column, f, f_den = self.g._nums[: size + 1], self.f._nums, self.f._den
        f_powers = [f_den**k for k in range(size + 1)]
        rows = [[0] * (n + 1) for n in range(size + 1)]
        for m in range(size + 1):
            if m > 0:
                column = _mul_ints(column, f, size)
            falling = 1
            for n in range(m, size + 1):
                if n > m:
                    falling *= n
                rows[n][m] = column[n] * falling * f_powers[n - m]
        return _reduced_triangle(rows, [self.g._den * power for power in f_powers])

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
