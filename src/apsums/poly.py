"""Dense polynomials with exact rational coefficients.

Unlike a truncated series, a polynomial is a total object: coefficients
beyond the degree are genuinely zero, the coefficient vector is kept in
trimmed canonical form, and evaluation is exact.  Row polynomials of the
number triangles, the Bernoulli polynomials and the factorial-basis
polynomials all live here.

A polynomial is stored as one canonical pair ``(nums, den)`` of integer
numerators over one denominator, as ``Fps`` is: coefficient k is
nums[k] / den, with den >= 1, gcd(den, *nums) = 1 and no trailing zero
numerator (the zero polynomial is ``((), 1)``).  Equal polynomials hold
equal pairs.  Sum, product (the integer Cauchy product in ``exact`` that
``Fps`` shares), scaling, derivative, shift and evaluation work on the
pairs in ``int`` and reduce once.  The pair is all a polynomial stores:
the constructor accepts only ``int`` (not ``bool``) and ``Fraction`` and
computes the pair at once, ``coefficients`` and ``[k]`` build their
``Fraction`` values on each read, and ``str`` prints the pair.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from fractions import Fraction

from .errors import DomainError
from .exact import Progression, _common_denominator, _exact_list, _fractions, _mul_ints, _ratio, _reduced, _terms

__all__ = ["Polynomial", "fallfac_poly", "risefac_poly"]

_ZERO = Fraction(0)


def _poly(nums: list[int], den: int) -> Polynomial:
    """The polynomial with coefficients nums[k] / den, trimmed and in canonical form."""
    while nums and not nums[-1]:
        nums.pop()
    poly = object.__new__(Polynomial)
    poly._nums, poly._den = _reduced(nums, den)
    return poly


class Polynomial:
    """Coefficient vector indexed by exponent, trailing zeros trimmed."""

    __slots__ = ("_nums", "_den")

    def __init__(self, coefficients: Iterable[Fraction | int] = ()):
        coeffs = _exact_list(coefficients)
        while coeffs and not coeffs[-1]:
            coeffs.pop()
        # reduced inputs over their least common denominator are already canonical
        nums, self._den = _common_denominator(coeffs)
        self._nums = tuple(nums)

    @classmethod
    def constant(cls, value: Fraction | int) -> Polynomial:
        return cls([value])

    @classmethod
    def x(cls) -> Polynomial:
        return cls([0, 1])

    @classmethod
    def monomial(cls, exponent: int, coefficient: Fraction | int = 1) -> Polynomial:
        if exponent < 0:
            raise DomainError("exponent must be non-negative")
        return cls([0] * exponent + [coefficient])

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return _fractions(self._nums, self._den)

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._nums) - 1

    def __getitem__(self, k: int) -> Fraction:
        if k < 0:
            raise DomainError("exponent must be non-negative")
        if k >= len(self._nums):
            return _ZERO
        return Fraction(self._nums[k], self._den)

    def __bool__(self) -> bool:
        return bool(self._nums)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self._nums, self._den))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Polynomial({list(self.coefficients)!r})"

    def __str__(self) -> str:
        return _terms(self._nums, self._den, "x") if self._nums else "0"

    def _plus(self, other: Polynomial | Fraction | int, sign: int) -> Polynomial:
        """self + sign * other, over the lcm of the two denominators."""
        if isinstance(other, Polynomial):
            b, db = other._nums, other._den
        else:
            p, db = _ratio(other)
            b = (p,)
        a, da = self._nums, self._den
        den = math.lcm(da, db)
        scale, other_scale = den // da, sign * (den // db)
        out = [c * scale for c in a]
        out.extend([0] * (len(b) - len(a)))
        for k, c in enumerate(b):
            out[k] += c * other_scale
        return _poly(out, den)

    def __add__(self, other: Polynomial | Fraction | int) -> Polynomial:
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return _poly([-c for c in self._nums], self._den)

    def __sub__(self, other: Polynomial | Fraction | int) -> Polynomial:
        return self._plus(other, -1)

    def __rsub__(self, other: Fraction | int) -> Polynomial:
        return -self + other

    def __mul__(self, other: Polynomial | Fraction | int) -> Polynomial:
        if not isinstance(other, Polynomial):
            p, q = _ratio(other)
            return _poly([c * p for c in self._nums], self._den * q)
        a, b = self._nums, other._nums
        if not a or not b:
            return Polynomial()
        return _poly(_mul_ints(a, b, len(a) + len(b) - 2), self._den * other._den)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> Polynomial:
        if n < 0:
            raise DomainError("polynomial power must be non-negative")
        out = Polynomial.constant(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def evaluate(self, x: Fraction | int) -> Fraction:
        """Exact Horner evaluation, on integers: with x = p/q the value is
        sum nums[k] p^k q^(deg-k) over den q^deg."""
        p, q = _ratio(x)
        if not self._nums:
            return _ZERO
        acc, q_power = 0, 1
        for c in reversed(self._nums):
            acc = acc * p + c * q_power
            q_power *= q
        return Fraction(acc, self._den * q_power // q)

    def derivative(self) -> Polynomial:
        nums = self._nums
        return _poly([k * nums[k] for k in range(1, len(nums))], self._den)

    def shifted(self, c: Fraction | int) -> Polynomial:
        """The polynomial p(x + c).

        With c = p/q, Horner on the numerators builds
        acc = sum_k nums[k] (p + q x)^k q^(deg-k), and p(x + c) = acc / (den q^deg).
        """
        p, q = _ratio(c)
        nums = self._nums
        if not nums:
            return self
        acc = [nums[-1]]
        q_power = 1
        for coeff in reversed(nums[:-1]):
            q_power *= q
            # acc * (p + q x), then the next coefficient
            acc = [p * lo + q * hi for lo, hi in zip([*acc, 0], [0, *acc])]
            acc[0] += coeff * q_power
        return _poly(acc, self._den * q_power)


def fallfac_poly(prog: Progression, m: int) -> Polynomial:
    """Generalized falling factorial as a polynomial in x: prod (x - (a+j*d))."""
    if m < 0:
        raise DomainError("length must be non-negative")
    out = Polynomial.constant(1)
    for j in range(m):
        out = out * Polynomial([-prog.term(j), 1])
    return out


def risefac_poly(prog: Progression, n: int) -> Polynomial:
    """Generalized rising factorial as a polynomial in x: prod (x + (a+j*d))."""
    if n < 0:
        raise DomainError("length must be non-negative")
    out = Polynomial.constant(1)
    for j in range(n):
        out = out * Polynomial([prog.term(j), 1])
    return out
