"""Exact scalars and arithmetic-progression primitives.

Every quantity in this package is an exact rational, never a float.  The
integer triangle families (s2, s2hat, s2fac, s1phat, reu, lah, lahinv)
come from integer recurrences and hold plain ``int``.  ``Fps`` and
``Polynomial`` store only one canonical pair ``(nums, den)`` of integer
numerators over one denominator, reduced by :func:`_reduced` with one
multi-argument gcd, and ``Triangle`` stores only integer numerator rows
over one denominator per row in the same canonical form; each builds the
``Fraction`` values it hands out on every read and caches none.
:func:`integer_power`, :func:`fallfac` and :func:`risefac` return an
``int`` for an integral argument and one ``Fraction`` otherwise.
Every other value is a :class:`fractions.Fraction`, which keeps the
canonical reduced form gcd(num, den) = 1 with den >= 1 that bit-exact
comparison relies on, as the pairs do.  An ``int`` equals the ``Fraction``
of the same value.  :func:`rational_str` gives the canonical text form
``p/q`` of either type, with ``/q`` omitted when q = 1, and every
exporter prints that text.  The three pair types print it from their
pairs through :func:`_texts`, one gcd per fractional entry.  An ``int``
or a ``Fraction`` already prints that text through its own ``str`` (a
``Fraction`` is reduced with a positive denominator whenever it is
built), so only other inputs pass through a new ``Fraction`` on the way.

The package's small value types (:class:`Progression` here, ``ShefferPair``,
``Alphabet`` and the verifier's records) are immutable ``__slots__`` classes
on :class:`_FrozenRecord` rather than dataclasses, so that ``import apsums.cli``
loads no ``dataclasses`` (and, through it, ``inspect``).
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
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
    """Canonical text form ``p/q`` (bare ``p`` when the denominator is 1).

    ``str`` of an ``int`` is already the bare ``p``, and ``str`` of a
    ``Fraction`` is already the canonical text, because a ``Fraction`` is
    stored in lowest terms with q >= 1.  So an input whose type is exactly
    ``int`` or ``Fraction`` prints through its own ``str``; anything else
    (``bool``, ``float``, a subclass) is converted to ``Fraction`` first.

    >>> rational_str(Fraction(6, -4)), rational_str(Fraction(7)), rational_str(True)
    ('-3/2', '7', '1')
    """
    if type(value) is int or type(value) is Fraction:
        return str(value)
    return str(Fraction(value))


class _FrozenRecord:
    """An immutable, hashable value with the fields named in its class's ``__slots__``.

    ``__init__`` fills the slots once through :meth:`_set`; any later
    assignment or deletion raises ``AttributeError``.  ``repr``, ``==`` and
    ``hash`` go field by field, in slot order, as a frozen dataclass's do;
    ``==`` holds only between instances of the same class.
    """

    __slots__ = ()

    def _set(self, *values: object) -> None:
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    def _values(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __hash__(self) -> int:
        return hash(self._values())

    def __reduce__(self) -> tuple:
        return type(self), self._values()


class Progression(_FrozenRecord):
    """Arithmetic progression a, a+d, a+2d, ... with step d >= 1, offset a >= 0.

    gcd(a, d) = 1 is deliberately not required: every identity in this
    package holds for arbitrary a >= 0, and the wider domain gives the
    cross-checks more surface.

    >>> Progression(2, a=1)
    Progression(d=2, a=1)
    """

    __slots__ = ("d", "a")

    def __init__(self, d: int, a: int = 0) -> None:
        # bool subclasses int, so True/False would pass as 1/0 unnoticed
        if isinstance(d, bool) or not isinstance(d, int) or d < 1:
            raise DomainError(f"common difference d must be a positive integer, got {d!r}")
        if isinstance(a, bool) or not isinstance(a, int) or a < 0:
            raise DomainError(f"initial term a must be a non-negative integer, got {a!r}")
        self._set(d, a)

    def term(self, j: int) -> int:
        """The j-th progression member a + d*j."""
        return self.a + self.d * j


_EXACT_TYPES = frozenset((int, Fraction))


def _exact(value: Fraction | int) -> Fraction:
    """``value`` as a ``Fraction``; only ``int`` (not ``bool``) and ``Fraction`` are exact."""
    if isinstance(value, Fraction):
        return value if type(value) is Fraction else Fraction(value)
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise DomainError(f"exact scalar must be an int or a Fraction, got {value!r}")


def _ratio(value: Fraction | int) -> tuple[int, int]:
    """``(p, q)`` with ``value == p/q`` in lowest terms and q >= 1, under the
    checks of :func:`_exact` but building no ``Fraction`` for an ``int``."""
    if type(value) is int or type(value) is Fraction:
        return value.as_integer_ratio()
    return _exact(value).as_integer_ratio()


def _exact_list(values: Iterable[Fraction | int]) -> list[Fraction | int]:
    """``values`` as a list of ``int`` and ``Fraction``; any other value goes
    through :func:`_exact`."""
    coeffs = list(values)
    if not set(map(type, coeffs)) <= _EXACT_TYPES:
        coeffs = [c if type(c) is int else _exact(c) for c in coeffs]
    return coeffs


def _common_denominator(values: Sequence[Fraction | int]) -> tuple[list[int], int]:
    """Integer numerators over one common denominator: values[k] == nums[k] / den."""
    ratios = [v.as_integer_ratio() for v in values]
    den = math.lcm(*{q for _, q in ratios})
    return [p * (den // q) for p, q in ratios], den


def _mul_ints(a: Sequence[int], b: Sequence[int], order: int) -> list[int]:
    """Cauchy product of two integer lists, truncated at ``order``."""
    out = [0] * (order + 1)
    for i, ai in enumerate(a[: order + 1]):
        if ai:
            for j, bj in enumerate(b[: order + 1 - i], i):
                out[j] += ai * bj
    return out


def _reduced(nums: Sequence[int], den: int) -> tuple[tuple[int, ...], int]:
    """The canonical pair of the values nums[k] / den: den >= 1 and
    gcd(den, *nums) = 1, reached with one multi-argument gcd.  ``den`` may
    be negative but not zero."""
    g = math.gcd(den, *nums)
    if den < 0:
        g = -g
    if g == 1:
        return tuple(nums), den
    return tuple([n // g for n in nums]), den // g


def _quotient(acc: int, den: int) -> int | Fraction:
    """acc / den as an ``int`` when it divides, else as the exact ``Fraction``,
    so that a route whose division leaves a remainder still disagrees."""
    q, r = divmod(acc, den)
    return q if r == 0 else Fraction(acc, den)


def _fractions(nums: Sequence[int], den: int) -> tuple[Fraction, ...]:
    """The values nums[k] / den as ``Fraction``."""
    return tuple([Fraction(p, den) for p in nums])


def _texts(nums: Sequence[int], den: int) -> list[str]:
    """The canonical texts ``p/q`` (bare ``p`` when q = 1) of the values
    nums[k] / den for den >= 1, the texts :func:`rational_str` gives, one gcd
    per entry."""
    if den == 1:
        return list(map(str, nums))
    return [
        str(p // g) if g == den else f"{p // g}/{den // g}"
        for p, g in zip(nums, map(math.gcd, nums, [den] * len(nums)))
    ]


def _terms(nums: Sequence[int], den: int, var: str) -> str:
    """The text ``c0 + c1*var + c2*var^2 + ...`` of the coefficients nums[k] / den."""
    return " + ".join([
        c if k == 0 else f"{c}*{var}" if k == 1 else f"{c}*{var}^{k}"
        for k, c in enumerate(_texts(nums, den))
    ])


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


def integer_power(base: Fraction | int, n: int) -> Fraction | int:
    """base**n for n >= 0 with the convention 0**0 = 1: an ``int`` for an
    ``int`` base, a ``Fraction`` for a ``Fraction`` base.

    >>> integer_power(3, 2), integer_power(Fraction(-1, 2), 3)
    (9, Fraction(-1, 8))
    """
    if n < 0:
        raise DomainError(f"exponent must be non-negative, got {n}")
    if type(base) is int:
        return base**n
    return _exact(base) ** n


def fallfac(prog: Progression, x: Fraction | int, m: int) -> Fraction | int:
    """Generalized falling factorial: product of (x - (a + j*d)) for j < m.

    The empty product (m = 0) is 1.  Satisfies
    fallfac(d,a; x, m) = d^m * fallfac(1,0; (x-a)/d, m).  With x = p/q the
    product of the integers p - (a + j*d)*q is divided by q^m once, into
    one ``Fraction``; an integral x (q = 1) gives the ``int`` product.

    >>> print(fallfac(Progression(1, 0), 4, 2))   # 4 * 3
    12
    >>> print(fallfac(Progression(2, 1), 6, 3))   # (6-1)(6-3)(6-5)
    15
    """
    if m < 0:
        raise DomainError(f"length must be non-negative, got {m}")
    p, q = _ratio(x)
    prod = 1
    for j in range(m):
        prod *= p - prog.term(j) * q
    return prod if q == 1 else Fraction(prod, q**m)


def risefac(prog: Progression, x: Fraction | int, n: int) -> Fraction | int:
    """Generalized rising factorial: product of (x + (a + j*d)) for j < n.

    The empty product (n = 0) is 1.  Dual to the falling version:
    risefac(d,a; x, n) = (-1)^n * fallfac(d,a; -x, n).  With x = p/q the
    product of the integers p + (a + j*d)*q is divided by q^n once, into
    one ``Fraction``; an integral x (q = 1) gives the ``int`` product.
    """
    if n < 0:
        raise DomainError(f"length must be non-negative, got {n}")
    p, q = _ratio(x)
    prod = 1
    for j in range(n):
        prod *= p + prog.term(j) * q
    return prod if q == 1 else Fraction(prod, q**n)
