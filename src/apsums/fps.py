"""Truncated formal power series over exact rationals.

An :class:`Fps` stores the coefficients of t^0 .. t^order explicitly; the
truncation order is part of the value and trailing zeros are never trimmed.
Binary operations truncate to the smaller operand order, so a coefficient
is never fabricated: everything a series claims to know was computed from
known input coefficients.

Coefficients are ``Fraction``; a constructor accepts only ``int`` (not
``bool``) and ``Fraction``.  The product (the Cauchy product in ``exact``,
shared with ``Polynomial``), reciprocal, composition, exponential and
power kernels bring each operand to integer numerators over one common
denominator, sum in ``int`` and divide once per output coefficient.  The
power runs J. C. P. Miller's recurrence directly, not through log and exp.

Two conventions matter throughout:

* asking for a coefficient beyond the order is an error, not a zero;
* the compositional inverse is built by Newton iteration and is
  cross-checked elsewhere against the Lagrange coefficient formula
  (:func:`reverse_coefficient_lagrange`), which shares no code with it.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Iterable, Sequence
from fractions import Fraction

from .errors import DomainError
from .exact import _common_denominator, _exact, _mul_coeffs, _mul_ints, _terms

__all__ = ["Fps", "DEFAULT_ORDER", "reverse_coefficient_lagrange"]

# Order used by the verification suites unless a caller picks another one.
DEFAULT_ORDER = 12

_ZERO = Fraction(0)
_ONE = Fraction(1)


def _recip_coeffs(f: Sequence[Fraction], order: int) -> list[Fraction]:
    """Coefficients of 1/f up to ``order``; f[0] must be nonzero.

    With f = nums/den, the integers r_k = out_k * c0^(k+1) / den (c0 = nums[0])
    satisfy r_0 = 1 and r_k = -sum_j nums[j] * c0^(j-1) * r_(k-j).
    """
    nums, den = _common_denominator(f[: order + 1])
    c0 = nums[0]
    weights = [nums[j] * c0 ** (j - 1) for j in range(1, len(nums))]
    r = [1]
    for _ in range(order):
        r.append(-sum(map(operator.mul, weights, reversed(r))))
    out, power = [], 1
    for rk in r:
        power *= c0
        out.append(Fraction(den * rk, power))
    return out


class Fps:
    """A formal power series truncated at an explicit order."""

    __slots__ = ("_coeffs",)

    def __init__(self, coefficients: Iterable[Fraction | int], order: int | None = None):
        coeffs = [c if type(c) is Fraction else _exact(c) for c in coefficients]
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
        rate = _exact(rate)
        p, q = rate.numerator, rate.denominator
        out, num, den = [], 1, 1
        for n in range(order + 1):
            out.append(Fraction(num, den))
            num *= p
            den *= q * (n + 1)
        return cls(out)

    @classmethod
    def geometric(cls, ratio: Fraction | int, order: int) -> Fps:
        """1/(1 - ratio*t): coefficients ratio^n."""
        ratio = _exact(ratio)
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
            raise DomainError(f"coefficient {k} beyond retained order {self.order}")
        return self._coeffs[k]

    def coefficient_times_factorial(self, n: int) -> Fraction:
        """n! * [t^n], the e.g.f. reading of coefficient n."""
        return self[n] * math.factorial(n)

    def truncated(self, order: int) -> Fps:
        if order > self.order:
            raise DomainError(
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
        return _terms(self._coeffs, "t") + f" ; order={self.order}"

    # -- ring operations ------------------------------------------------------

    def _binary_order(self, other: Fps) -> int:
        return min(self.order, other.order)

    def __add__(self, other: Fps | Fraction | int) -> Fps:
        if not isinstance(other, Fps):
            coeffs = list(self._coeffs)
            coeffs[0] += _exact(other)
            return Fps(coeffs)
        order = self._binary_order(other)
        return Fps([self._coeffs[k] + other._coeffs[k] for k in range(order + 1)])

    __radd__ = __add__

    def __neg__(self) -> Fps:
        return Fps([-c for c in self._coeffs])

    def __sub__(self, other: Fps | Fraction | int) -> Fps:
        if not isinstance(other, Fps):
            other = _exact(other)
        return self + (-other)

    def __rsub__(self, other: Fraction | int) -> Fps:
        return -self + other

    def __mul__(self, other: Fps | Fraction | int) -> Fps:
        if not isinstance(other, Fps):
            return self.scale(other)
        order = self._binary_order(other)
        return Fps(_mul_coeffs(self._coeffs, other._coeffs, order))

    __rmul__ = __mul__

    def scale(self, factor: Fraction | int) -> Fps:
        factor = _exact(factor)
        return Fps([c * factor for c in self._coeffs])

    def reciprocal(self) -> Fps:
        """Multiplicative inverse; requires a nonzero constant term."""
        if self._coeffs[0] == 0:
            raise DomainError("series with zero constant term has no reciprocal")
        return Fps(_recip_coeffs(self._coeffs, self.order))

    def __truediv__(self, other: Fps | Fraction | int) -> Fps:
        if not isinstance(other, Fps):
            divisor = _exact(other)
            if divisor == 0:
                raise DomainError("division of a series by zero")
            return self.scale(1 / divisor)
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
            raise DomainError("cannot shift below the constant term")
        if any(c != 0 for c in self._coeffs[:k]):
            raise DomainError("shifted_down requires the low coefficients to vanish")
        return Fps(self._coeffs[k:])

    def derivative(self) -> Fps:
        """Coefficient-wise k*c_k shifted down; the order drops by one."""
        if self.order == 0:
            raise DomainError("derivative of an order-0 series retains no coefficients")
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
            raise DomainError("inner series must have zero constant term")
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
            raise DomainError("reversion needs c0 = 0 and c1 != 0")
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
            raise DomainError("series logarithm needs constant term 1")
        if self.order == 0:
            return Fps.zero(0)
        return (self.derivative() * self.reciprocal().truncated(self.order - 1)).integral()

    def exp(self) -> Fps:
        """exp(self); requires constant term 0.

        Solves E' = E*self' coefficient-wise, which keeps the full order.
        """
        if self._coeffs[0] != 0:
            raise DomainError("series exponential needs constant term 0")
        # With c = nums/den and N = order, v_k = out_k * den^k * N! satisfies
        # k * v_k = sum_j j * nums[j] * den^(j-1) * v_(k-j).  It is an integer,
        # since out_k sums products of at most k coefficients over m! with m <= k.
        nums, den = _common_denominator(self._coeffs)
        weights = [j * nums[j] * den ** (j - 1) for j in range(1, len(nums))]
        v = [math.factorial(self.order)]
        for k in range(1, self.order + 1):
            v.append(sum(map(operator.mul, weights, reversed(v))) // k)
        return Fps([Fraction(vk, den**k * v[0]) for k, vk in enumerate(v)])

    def pow(self, exponent: Fraction | int) -> Fps:
        """self**exponent = exp(exponent * log(self)) for rational exponents.

        Requires constant term 1, so the result stays inside the rationals.
        Computed by J. C. P. Miller's recurrence for powers of a series
        (Knuth, TAOCP Vol. 2, Sec. 4.7): h = f^e with f_0 = h_0 = 1 satisfies

            k * h_k = sum_(j=1..k) ((e + 1) * j - k) * f_j * h_(k-j).

        With f = nums/den and e = p/q, w_k = h_k * (den*q)^k * k! is an
        integer, and w_k = sum_j ((p + q) * j - k*q) * nums_j * (den*q)^(j-1)
        * (k-1)!/(k-j)! * w_(k-j), so the loop runs in ``int`` and each
        coefficient is divided once.

        >>> print(Fps([1, -4], order=3).pow(Fraction(-1, 2)))   # central binomials
        1 + 2*t + 6*t^2 + 20*t^3 ; order=3
        """
        if self._coeffs[0] != 1:
            raise DomainError("fractional power needs constant term 1")
        exponent = _exact(exponent)
        p, q = exponent.numerator, exponent.denominator
        nums, den = _common_denominator(self._coeffs)
        step = den * q
        weights = [nums[j] * step ** (j - 1) for j in range(1, len(nums))]
        linear = [(p + q) * j * wj for j, wj in enumerate(weights, start=1)]
        constant = [q * wj for wj in weights]
        # history[i] = w_i * (k-1)!/i! for i < k, at the start of step k
        history = [1]
        out, scale = [_ONE], 1
        for k in range(1, self.order + 1):
            past = history[::-1]
            wk = sum(map(operator.mul, linear, past)) - k * sum(map(operator.mul, constant, past))
            scale *= step * k
            out.append(Fraction(wk, scale))
            history = [k * hi for hi in history]
            history.append(wk)
        return Fps(out)


def _compose_coeffs(outer: Sequence[Fraction], g: Sequence[Fraction], order: int) -> list[Fraction]:
    """Horner composition of coefficient lists; g[0] is assumed zero.

    Outer coefficients beyond ``order`` cannot reach down to it because g
    starts at t^1, so they are skipped.  Horner runs on integer numerators:
    after the step for k, acc / (den * gden^(top-k)) = sum_(i>=k) outer_i g^(i-k).
    """
    top = min(len(outer) - 1, order)
    nums, den = _common_denominator(outer[: top + 1])
    gnums, gden = _common_denominator(g[: order + 1])
    acc = [nums[top]] + [0] * order
    scale = 1
    for k in range(top - 1, -1, -1):
        acc = _mul_ints(gnums, acc, order)
        scale *= gden
        acc[0] += nums[k] * scale
    den *= scale
    return [Fraction(c, den) for c in acc]


def reverse_coefficient_lagrange(f: Fps, n: int, k: int = 1) -> Fraction:
    """n! * [y^n] of (f^[-1])^k / k!, by the Lagrange coefficient formula.

    Writes f = t*psi(t) and evaluates binom(n-1, n-k) times the (n-k)-th
    derivative of psi^(-n) at 0.  Shares no code with Newton reversion, so
    it serves as the independent oracle for :meth:`Fps.reverse`.
    """
    if f.order < 1 or f[0] != 0 or f[1] == 0:
        raise DomainError("reversion needs c0 = 0 and c1 != 0")
    if n < 0 or k < 0:
        raise DomainError("indices must be non-negative")
    if k == 0:
        return Fraction(1 if n == 0 else 0)
    if n < k:
        return Fraction(0)
    psi = f.shifted_down(1)  # order f.order - 1, enough for the derivative below
    if n - k > psi.order:
        raise DomainError("series order too small for the requested coefficient")
    # psi^(-n) with psi(0) not necessarily 1: normalize, raise, restore.
    q = psi.truncated(n - k)
    c0 = q[0]
    inv_psi_n = q.scale(1 / c0).pow(-n).scale(c0 ** (-n))
    # The (n-k)-th derivative at 0 is (n-k)! times the coefficient.
    deriv = inv_psi_n[n - k] * math.factorial(n - k)
    return math.comb(n - 1, n - k) * deriv
