"""Dense polynomials with exact rational coefficients.

Unlike a truncated series, a polynomial is a total object: coefficients
beyond the degree are genuinely zero, the coefficient vector is kept in
trimmed canonical form, and evaluation is exact.  Row polynomials of the
number triangles, the Bernoulli polynomials and the factorial-basis
polynomials all live here.

Coefficients are ``Fraction``; the constructor accepts only ``int`` (not
``bool``) and ``Fraction``.  The product is the Cauchy product in ``exact``
that ``Fps`` shares: both factors go to integer numerators over one common
denominator, sum in ``int`` and divide once per output coefficient.
"""

from __future__ import annotations

from collections.abc import Iterable
from fractions import Fraction

from .errors import DomainError
from .exact import Progression, _common_denominator, _exact, _mul_coeffs, _terms

__all__ = ["Polynomial", "fallfac_poly", "risefac_poly"]

_ZERO = Fraction(0)


class Polynomial:
    """Coefficient vector indexed by exponent, trailing zeros trimmed."""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[Fraction | int] = ()):
        coeffs = [c if type(c) is Fraction else _exact(c) for c in coefficients]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self._coeffs = tuple(coeffs)

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
        return self._coeffs

    @property
    def degree(self) -> int:
        """Degree of the polynomial; -1 for the zero polynomial."""
        return len(self._coeffs) - 1

    def __getitem__(self, k: int) -> Fraction:
        if k < 0:
            raise DomainError("exponent must be non-negative")
        return self._coeffs[k] if k < len(self._coeffs) else _ZERO

    def __bool__(self) -> bool:
        return bool(self._coeffs)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Polynomial({list(self._coeffs)!r})"

    def __str__(self) -> str:
        return _terms(self._coeffs, "x") if self._coeffs else "0"

    def __add__(self, other: Polynomial | Fraction | int) -> Polynomial:
        if not isinstance(other, Polynomial):
            other = Polynomial.constant(other)
        a, b = self._coeffs, other._coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for k, c in enumerate(b):
            out[k] += c
        return Polynomial(out)

    __radd__ = __add__

    def __neg__(self) -> Polynomial:
        return Polynomial([-c for c in self._coeffs])

    def __sub__(self, other: Polynomial | Fraction | int) -> Polynomial:
        if not isinstance(other, Polynomial):
            other = _exact(other)
        return self + (-other)

    def __rsub__(self, other: Fraction | int) -> Polynomial:
        return -self + other

    def __mul__(self, other: Polynomial | Fraction | int) -> Polynomial:
        if not isinstance(other, Polynomial):
            other = _exact(other)
            return Polynomial([c * other for c in self._coeffs])
        return Polynomial(_mul_coeffs(self._coeffs, other._coeffs, self.degree + other.degree))

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
        """Exact Horner evaluation, on integers: with x = p/q and the
        coefficients as nums[k]/den, the value is sum nums[k] p^k q^(deg-k)
        over den q^deg."""
        x = _exact(x)
        if not self._coeffs:
            return _ZERO
        nums, den = _common_denominator(self._coeffs)
        p, q = x.numerator, x.denominator
        acc, q_power = 0, 1
        for c in reversed(nums):
            acc = acc * p + c * q_power
            q_power *= q
        return Fraction(acc, den * q_power // q)

    def derivative(self) -> Polynomial:
        return Polynomial([k * self._coeffs[k] for k in range(1, len(self._coeffs))])

    def shifted(self, c: Fraction | int) -> Polynomial:
        """The polynomial p(x + c)."""
        shift = Polynomial([_exact(c), 1])
        acc = Polynomial()
        for coeff in reversed(self._coeffs):
            acc = acc * shift + coeff
        return acc


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
