"""Truncated formal power series over exact rationals.

An :class:`Fps` stores the coefficients of t^0 .. t^order explicitly; the
truncation order is part of the value and trailing zeros are never trimmed.
Binary operations truncate to the smaller operand order, so a coefficient
is never fabricated: everything a series claims to know was computed from
known input coefficients.

Two conventions matter throughout:

* asking for a coefficient beyond the order is an error, not a zero;
* the compositional inverse is built by Newton iteration and is
  cross-checked elsewhere against the Lagrange coefficient formula
  (:func:`reverse_coefficient_lagrange`), which shares no code with it.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import (
    CompositionDomainError,
    DomainError,
    ExpDomainError,
    InsufficientOrder,
    LogDomainError,
    NonInvertibleSeries,
    PowDomainError,
    ReversionDomainError,
)

__all__ = ["Fps", "DEFAULT_ORDER", "reverse_coefficient_lagrange"]

# Order used by the verification suites unless a caller picks another one.
DEFAULT_ORDER = 12

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _mul_coeffs(a: Sequence[Fraction], b: Sequence[Fraction], order: int) -> list[Fraction]:
    """Cauchy product of two coefficient lists, truncated at ``order``."""
    out = [_ZERO] * (order + 1)
    for i, ai in enumerate(a):
        if i > order:
            break
        if ai == 0:
            continue
        top = min(order - i, len(b) - 1)
        for j in range(top + 1):
            bj = b[j]
            if bj != 0:
                out[i + j] += ai * bj
    return out


def _recip_coeffs(f: Sequence[Fraction], order: int) -> list[Fraction]:
    """Coefficients of 1/f up to ``order``; f[0] must be nonzero."""
    c0 = f[0]
    out = [_ZERO] * (order + 1)
    out[0] = 1 / c0
    for k in range(1, order + 1):
        acc = _ZERO
        for j in range(1, min(k, len(f) - 1) + 1):
            if f[j] != 0:
                acc += f[j] * out[k - j]
        out[k] = -acc / c0
    return out


class Fps:
    """A formal power series truncated at an explicit order."""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[Fraction | int], order: int | None = None):
        coeffs = [Fraction(c) for c in coefficients]
        if order is not None:
            if order < 0:
                raise DomainError(f"order must be non-negative, got {order}")
            if len(coeffs) > order + 1:
                del coeffs[order + 1 :]
            else:
                coeffs.extend([_ZERO] * (order + 1 - len(coeffs)))
        if not coeffs:
            raise DomainError("a series needs at least its constant coefficient")
        self._coeffs = tuple(coeffs)

    # -- construction helpers -------------------------------------------------

    @classmethod
    def constant(cls, value: Fraction | int, order: int) -> Fps:
        return cls([value], order=order)

    @classmethod
    def zero(cls, order: int) -> Fps:
        return cls.constant(0, order)

    @classmethod
    def one(cls, order: int) -> Fps:
        return cls.constant(1, order)

    @classmethod
    def x(cls, order: int) -> Fps:
        """The series t itself."""
        return cls([0, 1], order=order)

    @classmethod
    def exp_of(cls, rate: Fraction | int, order: int) -> Fps:
        """e^(rate*t): coefficients rate^n / n!.

        >>> print(Fps.exp_of(2, 3))
        1 + 2*t + 2*t^2 + 4/3*t^3 ; order=3
        """
        rate = Fraction(rate)
        out, term = [], _ONE
        for n in range(order + 1):
            out.append(term)
            term = term * rate / (n + 1)
        return cls(out)

    @classmethod
    def geometric(cls, ratio: Fraction | int, order: int) -> Fps:
        """1/(1 - ratio*t): coefficients ratio^n."""
        ratio = Fraction(ratio)
        out, term = [], _ONE
        for _ in range(order + 1):
            out.append(term)
            term *= ratio
        return cls(out)

    # -- basic accessors ------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._coeffs) - 1

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return self._coeffs

    def __getitem__(self, k: int) -> Fraction:
        if k < 0:
            raise DomainError("coefficient index must be non-negative")
        if k > self.order:
            raise InsufficientOrder(f"coefficient {k} beyond retained order {self.order}")
        return self._coeffs[k]

    def coefficient_times_factorial(self, n: int) -> Fraction:
        """n! * [t^n], the e.g.f. reading of coefficient n."""
        return self[n] * math.factorial(n)

    def truncated(self, order: int) -> Fps:
        if order > self.order:
            raise InsufficientOrder(
                f"cannot extend a series of order {self.order} to order {order}"
            )
        return Fps(self._coeffs[: order + 1])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fps):
            return NotImplemented
        return self._coeffs == other._coeffs

    def __hash__(self) -> int:
        return hash(self._coeffs)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Fps({list(self._coeffs)!r})"

    def __str__(self) -> str:
        terms = []
        for k, c in enumerate(self._coeffs):
            if k == 0:
                terms.append(str(c))
            elif k == 1:
                terms.append(f"{c}*t")
            else:
                terms.append(f"{c}*t^{k}")
        return " + ".join(terms) + f" ; order={self.order}"

    # -- ring operations ------------------------------------------------------

    def _binary_order(self, other: Fps) -> int:
        return min(self.order, other.order)

    def __add__(self, other: Fps | Fraction | int) -> Fps:
        if isinstance(other, (int, Fraction)):
            coeffs = list(self._coeffs)
            coeffs[0] += other
            return Fps(coeffs)
        order = self._binary_order(other)
        return Fps([self._coeffs[k] + other._coeffs[k] for k in range(order + 1)])

    __radd__ = __add__

    def __neg__(self) -> Fps:
        return Fps([-c for c in self._coeffs])

    def __sub__(self, other: Fps | Fraction | int) -> Fps:
        return self + (-other)

    def __rsub__(self, other: Fraction | int) -> Fps:
        return -self + other

    def __mul__(self, other: Fps | Fraction | int) -> Fps:
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        order = self._binary_order(other)
        return Fps(_mul_coeffs(self._coeffs, other._coeffs, order))

    __rmul__ = __mul__

    def scale(self, factor: Fraction | int) -> Fps:
        factor = Fraction(factor)
        return Fps([c * factor for c in self._coeffs])

    def reciprocal(self) -> Fps:
        """Multiplicative inverse; requires a nonzero constant term."""
        if self._coeffs[0] == 0:
            raise NonInvertibleSeries("series with zero constant term has no reciprocal")
        return Fps(_recip_coeffs(self._coeffs, self.order))

    def __truediv__(self, other: Fps | Fraction | int) -> Fps:
        if isinstance(other, (int, Fraction)):
            if other == 0:
                raise ZeroDivisionError("division of a series by zero")
            return self.scale(Fraction(1, 1) / Fraction(other))
        return self * other.reciprocal()

    # -- shifts and transforms ------------------------------------------------

    def shifted_up(self, k: int = 1) -> Fps:
        """Multiply by t^k, keeping the order (top coefficients fall off)."""
        if k < 0:
            raise DomainError("shift must be non-negative")
        return Fps(([_ZERO] * k + list(self._coeffs)), order=self.order)

    def shifted_down(self, k: int = 1) -> Fps:
        """Divide by t^k; the k lowest coefficients must be zero."""
        if k < 0:
            raise DomainError("shift must be non-negative")
        if k > self.order:
            raise InsufficientOrder("cannot shift below the constant term")
        if any(c != 0 for c in self._coeffs[:k]):
            raise DomainError("shifted_down requires the low coefficients to vanish")
        return Fps(self._coeffs[k:])

    def derivative(self) -> Fps:
        """Coefficient-wise k*c_k shifted down; the order drops by one."""
        if self.order == 0:
            raise InsufficientOrder("derivative of an order-0 series retains no coefficients")
        return Fps([k * self._coeffs[k] for k in range(1, self.order + 1)])

    def integral(self) -> Fps:
        """Antiderivative with constant term 0; the order grows by one."""
        out = [_ZERO]
        out.extend(self._coeffs[k] / (k + 1) for k in range(self.order + 1))
        return Fps(out)

    def ogf_to_egf(self) -> Fps:
        """Divide coefficient n by n! (o.g.f. -> e.g.f. reading)."""
        return Fps([c / math.factorial(n) for n, c in enumerate(self._coeffs)])

    def egf_to_ogf(self) -> Fps:
        """Multiply coefficient n by n! (e.g.f. -> o.g.f. reading)."""
        return Fps([c * math.factorial(n) for n, c in enumerate(self._coeffs)])

    # -- composition, reversion, transcendental maps ---------------------------

    def compose(self, inner: Fps) -> Fps:
        """self(inner(t)); the inner constant term must vanish."""
        if inner._coeffs[0] != 0:
            raise CompositionDomainError("inner series must have zero constant term")
        return Fps(_compose_coeffs(self._coeffs, inner._coeffs, self._binary_order(inner)))

    def reverse(self) -> Fps:
        """Compositional inverse, by order-doubling Newton iteration.

        Requires a simple zero at the origin (c0 = 0, c1 != 0).  Each pass
        computes g <- g - (f(g) - t)/f'(g); the quotient's top coefficient
        only ever multiplies the residue's zero constant term, so padding
        the derivative by one slot cannot contaminate the result.

        >>> print((Fps.exp_of(1, 4) - 1).reverse())   # log(1+t)
        0 + 1*t + -1/2*t^2 + 1/3*t^3 + -1/4*t^4 ; order=4
        """
        c = self._coeffs
        if self.order < 1 or c[0] != 0 or c[1] == 0:
            raise ReversionDomainError("reversion needs c0 = 0 and c1 != 0")
        order = self.order
        fprime = [Fraction(k) * c[k] for k in range(1, order + 1)]
        fprime.append(_ZERO)  # padding; see docstring
        g = [_ZERO, 1 / c[1]] + [_ZERO] * (order - 1)
        identity = [_ZERO, _ONE] + [_ZERO] * (order - 1)
        for _ in range(order.bit_length() + 2):
            fg = _compose_coeffs(self._coeffs, g, order)
            residue = [fg[k] - identity[k] for k in range(order + 1)]
            if all(r == 0 for r in residue):
                return Fps(g)
            dfg = _compose_coeffs(fprime, g, order)
            correction = _mul_coeffs(residue, _recip_coeffs(dfg, order), order)
            g = [g[k] - correction[k] for k in range(order + 1)]
        raise AssertionError("Newton reversion failed to converge")  # pragma: no cover

    def log(self) -> Fps:
        """log(self) = integral(self'/self); requires constant term 1."""
        if self._coeffs[0] != 1:
            raise LogDomainError("series logarithm needs constant term 1")
        if self.order == 0:
            return Fps.zero(0)
        return (self.derivative() * self.reciprocal().truncated(self.order - 1)).integral()

    def exp(self) -> Fps:
        """exp(self); requires constant term 0.

        Solves E' = E*self' coefficient-wise, which keeps the full order.
        """
        if self._coeffs[0] != 0:
            raise ExpDomainError("series exponential needs constant term 0")
        c = self._coeffs
        out = [_ONE] + [_ZERO] * self.order
        for k in range(1, self.order + 1):
            acc = _ZERO
            for j in range(1, k + 1):
                if c[j] != 0:
                    acc += j * c[j] * out[k - j]
            out[k] = acc / k
        return Fps(out)

    def pow(self, exponent: Fraction | int) -> Fps:
        """self**exponent = exp(exponent * log(self)) for rational exponents.

        Requires constant term 1, so the result stays inside the rationals.
        """
        if self._coeffs[0] != 1:
            raise PowDomainError("fractional power needs constant term 1")
        return self.log().scale(Fraction(exponent)).exp()


def _compose_coeffs(outer: Sequence[Fraction], g: Sequence[Fraction], order: int) -> list[Fraction]:
    """Horner composition of coefficient lists; g[0] is assumed zero.

    Outer coefficients beyond ``order`` cannot reach down to it because g
    starts at t^1, so they are skipped.
    """
    acc = [_ZERO] * (order + 1)
    for k in range(min(len(outer) - 1, order), -1, -1):
        acc = _mul_coeffs(acc, g, order)
        acc[0] += outer[k]
    return acc


def reverse_coefficient_lagrange(f: Fps, n: int, k: int = 1) -> Fraction:
    """n! * [y^n] of (f^[-1])^k / k!, by the Lagrange coefficient formula.

    Writes f = t*psi(t) and evaluates binom(n-1, n-k) times the (n-k)-th
    derivative of psi^(-n) at 0.  Shares no code with Newton reversion, so
    it serves as the independent oracle for :meth:`Fps.reverse`.
    """
    if f.order < 1 or f[0] != 0 or f[1] == 0:
        raise ReversionDomainError("reversion needs c0 = 0 and c1 != 0")
    if n < 0 or k < 0:
        raise DomainError("indices must be non-negative")
    if k == 0:
        return Fraction(1 if n == 0 else 0)
    if n < k:
        return Fraction(0)
    psi = f.shifted_down(1)  # order f.order - 1, enough for the derivative below
    if n - k > psi.order:
        raise InsufficientOrder("series order too small for the requested coefficient")
    # psi^(-n) with psi(0) not necessarily 1: normalize, raise, restore.
    q = psi.truncated(n - k)
    c0 = q[0]
    inv_psi_n = q.scale(1 / c0).pow(-n).scale(c0 ** (-n))
    # The (n-k)-th derivative at 0 is (n-k)! times the coefficient.
    deriv = inv_psi_n[n - k] * math.factorial(n - k)
    return math.comb(n - 1, n - k) * deriv
