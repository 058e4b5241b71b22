"""Truncated formal power series over exact rationals.

An :class:`Fps` stores the coefficients of t^0 .. t^order explicitly; the
truncation order is part of the value and trailing zeros are never trimmed.
Binary operations truncate to the smaller operand order, so a coefficient
is never fabricated: everything a series claims to know was computed from
known input coefficients.

A series is stored as one canonical pair ``(nums, den)`` of integer
numerators over one denominator: coefficient k is nums[k] / den, with
den >= 1 and gcd(den, *nums) = 1.  Equal series therefore hold equal
pairs, and ``==`` and ``hash`` go through the pair.  Every kernel (the
ring operations, reciprocal, composition, reversion, exp, log, pow, the
shifts, the calculus and the factorial transforms) reads the pairs of its
operands, sums in ``int`` and brings its result to canonical form with one
multi-argument gcd; none builds a ``Fraction`` per coefficient.  The
modules of this package that consume a series's numerators (``sheffer``)
read the pair directly.

The pair is all a series stores.  The constructor accepts only ``int``
(not ``bool``) and ``Fraction`` coefficients and keeps none of them;
``coefficients``, ``[k]`` and :meth:`~Fps.coefficient_times_factorial`
build their ``Fraction`` values on each read, and ``str`` prints the pair.
The power runs J. C. P. Miller's recurrence directly, not through log and
exp.

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
from .exact import _common_denominator, _exact_list, _fractions, _mul_ints, _ratio, _reduced, _terms

__all__ = ["Fps", "DEFAULT_ORDER", "reverse_coefficient_lagrange"]

# Order used by the verification suites unless a caller picks another one.
DEFAULT_ORDER = 12

# A pair (nums, den) stands for the coefficients nums[k] / den.  The kernels
# below return pairs that need not be canonical; ``_reduced`` makes them so.
_Pair = tuple[Sequence[int], int]


def _sum(a: Sequence[int], da: int, b: Sequence[int], db: int, sign: int = 1) -> _Pair:
    """a/da + sign * b/db over the shorter of the two lengths."""
    den = math.lcm(da, db)
    ma, mb = den // da, sign * (den // db)
    return [x * ma + y * mb for x, y in zip(a, b)], den


def _recip(nums: Sequence[int], den: int, order: int) -> _Pair:
    """1/f up to ``order`` for f = nums/den; nums[0] must be nonzero.

    With c0 = nums[0], the integers r_k = out_k * c0^(k+1) / den satisfy
    r_0 = 1 and r_k = -sum_j nums[j] * c0^(j-1) * r_(k-j); over the common
    denominator c0^(order+1), out_k has numerator den * r_k * c0^(order-k).
    """
    c0 = nums[0]
    weights = [nums[j] * c0 ** (j - 1) for j in range(1, min(len(nums), order + 1))]
    r = [1]
    for _ in range(order):
        r.append(-sum(map(operator.mul, weights, reversed(r))))
    power = den
    for k in range(order, -1, -1):
        r[k] *= power
        power *= c0
    return r, power // den


def _compose(nums: Sequence[int], den: int, gnums: Sequence[int], gden: int, order: int) -> _Pair:
    """f(g) up to ``order`` for f = nums/den, g = gnums/gden; g[0] must be zero.

    Coefficients of f beyond ``order`` cannot reach down to it because g
    starts at t^1, so they are skipped.  Horner runs on the numerators:
    after the step for k, acc / (den * gden^(top-k)) = sum_(i>=k) f_i g^(i-k).
    """
    top = min(len(nums) - 1, order)
    acc = [nums[top]] + [0] * order
    scale = 1
    for k in range(top - 1, -1, -1):
        acc = _mul_ints(gnums, acc, order)
        scale *= gden
        acc[0] += nums[k] * scale
    return acc, den * scale


def _integral(nums: Sequence[int], den: int) -> _Pair:
    """Antiderivative with constant term 0, over den * lcm(1..len(nums))."""
    lcm = math.lcm(*range(1, len(nums) + 1))
    return [0] + [c * (lcm // k) for k, c in enumerate(nums, start=1)], den * lcm


def _fps(nums: Sequence[int], den: int) -> Fps:
    """The series with coefficients nums[k] / den, in canonical form."""
    series = object.__new__(Fps)
    series._nums, series._den = _reduced(nums, den)
    return series


class Fps:
    """A formal power series truncated at an explicit order."""

    __slots__ = ("_nums", "_den")

    def __init__(self, coefficients: Iterable[Fraction | int], order: int | None = None):
        coeffs = _exact_list(coefficients)
        if order is not None:
            if order < 0:
                raise DomainError(f"order must be non-negative, got {order}")
            if len(coeffs) > order + 1:
                del coeffs[order + 1 :]
            else:
                coeffs.extend([0] * (order + 1 - len(coeffs)))
        if not coeffs:
            raise DomainError("a series needs at least its constant coefficient")
        # reduced inputs over their least common denominator are already canonical
        nums, self._den = _common_denominator(coeffs)
        self._nums = tuple(nums)

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
        return cls.geometric(rate, order).ogf_to_egf()

    @classmethod
    def geometric(cls, ratio: Fraction | int, order: int) -> Fps:
        """1/(1 - ratio*t): coefficients ratio^n."""
        p, q = _ratio(ratio)
        return _fps([p**n * q ** (order - n) for n in range(order + 1)], q**order)

    # -- basic accessors ------------------------------------------------------

    @property
    def order(self) -> int:
        return len(self._nums) - 1

    @property
    def coefficients(self) -> tuple[Fraction, ...]:
        return _fractions(self._nums, self._den)

    def _numerator(self, k: int) -> int:
        if k < 0:
            raise DomainError("coefficient index must be non-negative")
        if k > self.order:
            raise DomainError(f"coefficient {k} beyond retained order {self.order}")
        return self._nums[k]

    def __getitem__(self, k: int) -> Fraction:
        return Fraction(self._numerator(k), self._den)

    def coefficient_times_factorial(self, n: int) -> Fraction:
        """n! * [t^n], the e.g.f. reading of coefficient n."""
        return Fraction(self._numerator(n) * math.factorial(n), self._den)

    def truncated(self, order: int) -> Fps:
        if order > self.order:
            raise DomainError(
                f"cannot extend a series of order {self.order} to order {order}"
            )
        return _fps(self._nums[: order + 1], self._den)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Fps):
            return NotImplemented
        return self._den == other._den and self._nums == other._nums

    def __hash__(self) -> int:
        return hash((self._nums, self._den))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Fps({list(self.coefficients)!r})"

    def __str__(self) -> str:
        return _terms(self._nums, self._den, "t") + f" ; order={self.order}"

    # -- ring operations ------------------------------------------------------

    def _plus(self, other: Fps | Fraction | int, sign: int) -> Fps:
        """self + sign * other."""
        if isinstance(other, Fps):
            return _fps(*_sum(self._nums, self._den, other._nums, other._den, sign))
        p, q = _ratio(other)
        den = math.lcm(self._den, q)
        scale = den // self._den
        nums = [c * scale for c in self._nums]
        nums[0] += sign * p * (den // q)
        return _fps(nums, den)

    def __add__(self, other: Fps | Fraction | int) -> Fps:
        return self._plus(other, 1)

    __radd__ = __add__

    def __neg__(self) -> Fps:
        return _fps([-c for c in self._nums], self._den)

    def __sub__(self, other: Fps | Fraction | int) -> Fps:
        return self._plus(other, -1)

    def __rsub__(self, other: Fraction | int) -> Fps:
        return -self + other

    def __mul__(self, other: Fps | Fraction | int) -> Fps:
        if not isinstance(other, Fps):
            return self.scale(other)
        order = min(self.order, other.order)
        return _fps(_mul_ints(self._nums, other._nums, order), self._den * other._den)

    __rmul__ = __mul__

    def scale(self, factor: Fraction | int) -> Fps:
        p, q = _ratio(factor)
        return _fps([c * p for c in self._nums], self._den * q)

    def reciprocal(self) -> Fps:
        """Multiplicative inverse; requires a nonzero constant term."""
        if self._nums[0] == 0:
            raise DomainError("series with zero constant term has no reciprocal")
        return _fps(*_recip(self._nums, self._den, self.order))

    def __truediv__(self, other: Fps | Fraction | int) -> Fps:
        if not isinstance(other, Fps):
            p, q = _ratio(other)
            if p == 0:
                raise DomainError("division of a series by zero")
            return _fps([c * q for c in self._nums], self._den * p)
        return self * other.reciprocal()

    # -- shifts and transforms ------------------------------------------------

    def shifted_up(self, k: int = 1) -> Fps:
        """Multiply by t^k, keeping the order (top coefficients fall off)."""
        if k < 0:
            raise DomainError("shift must be non-negative")
        return _fps(([0] * k + list(self._nums))[: self.order + 1], self._den)

    def shifted_down(self, k: int = 1) -> Fps:
        """Divide by t^k; the k lowest coefficients must be zero."""
        if k < 0:
            raise DomainError("shift must be non-negative")
        if k > self.order:
            raise DomainError("cannot shift below the constant term")
        if any(self._nums[:k]):
            raise DomainError("shifted_down requires the low coefficients to vanish")
        return _fps(self._nums[k:], self._den)

    def derivative(self) -> Fps:
        """Coefficient-wise k*c_k shifted down; the order drops by one."""
        if self.order == 0:
            raise DomainError("derivative of an order-0 series retains no coefficients")
        nums = self._nums
        return _fps([k * nums[k] for k in range(1, len(nums))], self._den)

    def integral(self) -> Fps:
        """Antiderivative with constant term 0; the order grows by one."""
        return _fps(*_integral(self._nums, self._den))

    def ogf_to_egf(self) -> Fps:
        """Divide coefficient n by n! (o.g.f. -> e.g.f. reading).

        Over the denominator den * N!, coefficient n has numerator
        nums[n] * N!/n!, built from the top down.
        """
        out = list(self._nums)
        scale = 1
        for n in range(self.order, 0, -1):
            out[n] *= scale
            scale *= n
        out[0] *= scale
        return _fps(out, self._den * scale)

    def egf_to_ogf(self) -> Fps:
        """Multiply coefficient n by n! (e.g.f. -> o.g.f. reading)."""
        out = list(self._nums)
        scale = 1
        for n in range(2, len(out)):
            scale *= n
            out[n] *= scale
        return _fps(out, self._den)

    # -- composition, reversion, transcendental maps ---------------------------

    def compose(self, inner: Fps) -> Fps:
        """self(inner(t)); the inner constant term must vanish."""
        if inner._nums[0] != 0:
            raise DomainError("inner series must have zero constant term")
        order = min(self.order, inner.order)
        return _fps(*_compose(self._nums, self._den, inner._nums, inner._den, order))

    def reverse(self) -> Fps:
        """Compositional inverse, by order-doubling Newton iteration.

        Requires a simple zero at the origin (c0 = 0, c1 != 0).  Each pass
        computes g <- g - (f(g) - t)/f'(g); the quotient's top coefficient
        only ever multiplies the residue's zero constant term, so padding
        the derivative by one slot cannot contaminate the result.  Every
        intermediate is a canonical pair.

        >>> print((Fps.exp_of(1, 4) - 1).reverse())   # log(1+t)
        0 + 1*t + -1/2*t^2 + 1/3*t^3 + -1/4*t^4 ; order=4
        """
        c, den, order = self._nums, self._den, self.order
        if order < 1 or c[0] != 0 or c[1] == 0:
            raise DomainError("reversion needs c0 = 0 and c1 != 0")
        fprime = [k * c[k] for k in range(1, order + 1)]
        fprime.append(0)  # padding; see docstring
        g, gden = _reduced([0, den] + [0] * (order - 1), c[1])
        for _ in range(order.bit_length() + 2):
            residue, rden = _compose(c, den, g, gden, order)
            residue[1] -= rden  # f(g) - t
            if not any(residue):
                return _fps(g, gden)
            slope, sden = _reduced(*_compose(fprime, den, g, gden, order))
            inv, iden = _reduced(*_recip(slope, sden, order))
            step, step_den = _reduced(_mul_ints(residue, inv, order), rden * iden)
            g, gden = _reduced(*_sum(g, gden, step, step_den, -1))
        raise AssertionError("Newton reversion failed to converge")  # pragma: no cover

    def log(self) -> Fps:
        """log(self) = integral(self'/self); requires constant term 1."""
        nums, den, order = self._nums, self._den, self.order
        if nums[0] != den:
            raise DomainError("series logarithm needs constant term 1")
        if order == 0:
            return Fps.zero(0)
        slope = self.derivative()
        inv, iden = _recip(nums, den, order - 1)
        return _fps(*_integral(_mul_ints(slope._nums, inv, order - 1), slope._den * iden))

    def exp(self) -> Fps:
        """exp(self); requires constant term 0.

        Solves E' = E*self' coefficient-wise, which keeps the full order.
        With c = nums/den and N = order, v_k = out_k * den^k * N! satisfies
        k * v_k = sum_j j * nums[j] * den^(j-1) * v_(k-j).  It is an integer,
        since out_k sums products of at most k coefficients over m! with
        m <= k.  Over the denominator den^N * N!, out_k has numerator
        v_k * den^(N-k).
        """
        nums, den, order = self._nums, self._den, self.order
        if nums[0] != 0:
            raise DomainError("series exponential needs constant term 0")
        weights = [j * nums[j] * den ** (j - 1) for j in range(1, order + 1)]
        v = [math.factorial(order)]
        for k in range(1, order + 1):
            v.append(sum(map(operator.mul, weights, reversed(v))) // k)
        power = 1
        for k in range(order, -1, -1):
            v[k] *= power
            power *= den
        return _fps(v, power // den * math.factorial(order))

    def pow(self, exponent: Fraction | int) -> Fps:
        """self**exponent = exp(exponent * log(self)) for rational exponents.

        Requires constant term 1, so the result stays inside the rationals.
        Computed by J. C. P. Miller's recurrence for powers of a series
        (Knuth, TAOCP Vol. 2, Sec. 4.7): h = f^e with f_0 = h_0 = 1 satisfies

            k * h_k = sum_(j=1..k) ((e + 1) * j - k) * f_j * h_(k-j).

        With f = nums/den and e = p/q, w_k = h_k * (den*q)^k * k! is an
        integer, and w_k = sum_j ((p + q) * j - k*q) * nums_j * (den*q)^(j-1)
        * (k-1)!/(k-j)! * w_(k-j), so the loop runs in ``int``.  Over the
        denominator (den*q)^N * N!, h_k has numerator w_k * (den*q)^(N-k) * N!/k!.

        >>> print(Fps([1, -4], order=3).pow(Fraction(-1, 2)))   # central binomials
        1 + 2*t + 6*t^2 + 20*t^3 ; order=3
        """
        nums, den, order = self._nums, self._den, self.order
        if nums[0] != den:
            raise DomainError("fractional power needs constant term 1")
        p, q = _ratio(exponent)
        step = den * q
        weights = [nums[j] * step ** (j - 1) for j in range(1, order + 1)]
        linear = [(p + q) * j * wj for j, wj in enumerate(weights, start=1)]
        constant = [q * wj for wj in weights]
        # history[i] = w_i * (k-1)!/i! for i < k, at the start of step k
        history = [1]
        w = [1]
        for k in range(1, order + 1):
            past = history[::-1]
            wk = sum(map(operator.mul, linear, past)) - k * sum(map(operator.mul, constant, past))
            w.append(wk)
            history = [k * hi for hi in history]
            history.append(wk)
        scale = 1
        for k in range(order, 0, -1):
            w[k] *= scale
            scale *= step * k
        w[0] *= scale
        return _fps(w, scale)


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
