"""Power sums over arithmetic progressions, by several independent routes.

The quantity is PS(d,a;n,m) = sum_{j=0}^{m} (a + d*j)^n with 0^0 = 1.
Direct summation is the universal oracle; the other routes are the
ordinary-Bernoulli Faulhaber formula, the generalized Faulhaber formula in
the one-parameter Bernoulli polynomials, and coefficient extraction from
the exponential and ordinary generating functions.  Route disagreement is
the package's primary diagnostic signal, so all of them stay public and
the CLI exposes each one by name.

Every route returns the exact sum as a plain ``int``.  ``ordinary`` and
``faulhaber`` divide one integer by one denominator at the end; where
that division leaves a remainder the route is broken, and it returns the
exact ``Fraction`` instead of a floor, so the disagreement shows.
``sigma_s2`` alone returns a ``Fraction``, since its callers divide it.

The generating-function routes read the one coefficient m that was asked
for off a binomial closed form over one integer row, summed in ``int``, so
a query costs O(n) products once the row is built:

* e.g.f. e^t sum_j SigmaS2(n,j) t^j/j!:  PS = sum_j C(m,j) SigmaS2(n,j);
* stacked o.g.f. sum_k S2(n,k) k! x^k/(1-x)^(k+2), since
  [x^m] x^k/(1-x)^(k+2) = C(m+1,k+1):  PS = sum_k S2(n,k) k! C(m+1,k+1);
* Eulerian o.g.f. sum_k rEu(n,k) x^k/(1-x)^(n+2), since
  [x^m] x^k/(1-x)^(n+2) = C(m-k+n+1,n+1):  PS = sum_k rEu(n,k) C(m-k+n+1,n+1).

The series forms themselves are checked by the faulhaber verify suite.

Every route but ``direct`` runs in two stages.  The first depends on
(prog, n) alone and builds, once, the Bernoulli table and weights
(``ordinary``), the Horner coefficients and the three m-free points
(``faulhaber``), the SigmaS2 row (``egf``), the S2(n,k) k! row
(``ogf-stacked``) or the rEu row (``ogf-eulerian``); the second evaluates
at m.  ``method_evaluator(method, prog, n)`` returns that second stage, so
a caller that needs many m builds each row once; each per-m public
function is its evaluator applied at one m, so every formula has one
definition.
"""

from __future__ import annotations

import functools
import math
from collections.abc import Callable
from fractions import Fraction
from itertools import accumulate, repeat
from operator import mul

from .bernoulli import _bernoulli_table
from .errors import DomainError
from .exact import Progression, _quotient
from .eulerian import reu_triangle
from .stirling import s2_triangle

__all__ = [
    "ps_direct",
    "ps_via_ordinary",
    "ps_faulhaber",
    "sigma_s2",
    "eps_coefficients",
    "gps_coefficients",
    "METHOD_NAMES",
    "evaluate_method",
    "method_evaluator",
]


def ps_direct(prog: Progression, n: int, m: int) -> int:
    """The defining sum; exact integer value, oracle for every other route.

    >>> print(ps_direct(Progression(2, 1), 2, 2))   # 1 + 9 + 25
    35
    """
    if n < 0 or m < 0:
        raise DomainError("indices must be non-negative")
    # the range yields the terms a + d*j for j = 0..m; pow(0, 0) == 1
    terms = range(prog.a, prog.a + prog.d * m + 1, prog.d)
    return sum(map(pow, terms, repeat(n)))


def _check(index: int) -> None:
    if index < 0:
        raise DomainError("indices must be non-negative")


def ps_via_ordinary(prog: Progression, n: int, m: int) -> int | Fraction:
    """Binomial a/d expansion over the ordinary Faulhaber formula:

    PS = sum_k C(n,k) a^(n-k) d^k [delta_{k,0} + (B(k+1,m+1) - B(k+1,1))/(k+1)].

    Summed in int over one table B(j) = N(j)/L: with C(n,k)/(k+1) =
    C(n+1,k+1)/(n+1) and B(k+1,x) = sum_j C(k+1,j) B(k+1-j) x^j,

    (n+1) L PS = (n+1) L a^n
                 + sum_k C(n+1,k+1) a^(n-k) d^k sum_{j>=1} C(k+1,j) N(k+1-j) ((m+1)^j - 1),

    and the sum is divided once, by (n+1) L.  The weights C(n+1,k+1)
    a^(n-k) d^k and the inner coefficients C(k+1,j) N(k+1-j) depend on
    (prog, n) alone.
    """
    return _ordinary(prog, n)(m)


def _ordinary(prog: Progression, n: int) -> Callable[[int], int | Fraction]:
    _check(n)
    nums, den = _bernoulli_table(n + 1)
    d, a = prog.d, prog.a
    # (weight, [C(k+1,j) N(k+1-j) for j = 1..k+1]) for each k with a nonzero weight
    terms = []
    for k in range(n + 1):
        weight = math.comb(n + 1, k + 1) * a ** (n - k) * d**k
        if weight:
            top = k + 1
            terms.append((weight, [math.comb(top, j) * nums[top - j] for j in range(1, top + 1)]))
    base = (n + 1) * den * a**n  # 0 ** 0 == 1

    def at(m: int) -> int | Fraction:
        _check(m)
        rises = [power - 1 for power in accumulate(repeat(m + 1, n), mul, initial=m + 1)]  # j = 1..n+1
        acc = base + sum(weight * sum(map(mul, inner, rises)) for weight, inner in terms)
        return _quotient(acc, (n + 1) * den)

    return at


def ps_faulhaber(prog: Progression, n: int, m: int) -> int | Fraction:
    """Generalized Faulhaber formula in the one-parameter polynomials:

    PS = [B(d;n+1, a+d(m+1)) - B(d;n+1, d) - B(d;n+1, a) + B(d;n+1, 0)
          + d*delta_{n,0}] / (d*(n+1)).

    L B(d;n+1,x) has the integer coefficients C(n+1,i) d^(n+1-i) N(n+1-i)
    over the table B(j) = N(j)/L; they are evaluated by Horner at the
    four integer points and the bracket is divided once, by d (n+1) L.
    Only the first point depends on m.
    """
    return _faulhaber(prog, n)(m)


def _faulhaber(prog: Progression, n: int) -> Callable[[int], int | Fraction]:
    _check(n)
    nums, den = _bernoulli_table(n + 1)
    d, a = prog.d, prog.a
    top = n + 1
    coeffs = [math.comb(top, i) * d ** (top - i) * nums[top - i] for i in range(top + 1)]
    fixed = -_horner(coeffs, d) - _horner(coeffs, a) + coeffs[0] + (d * den if n == 0 else 0)

    def at(m: int) -> int | Fraction:
        _check(m)
        return _quotient(_horner(coeffs, a + d * (m + 1)) + fixed, d * top * den)

    return at


def _horner(coeffs: list[int], x: int) -> int:
    """sum_i coeffs[i] x^i."""
    acc = 0
    for c in reversed(coeffs):
        acc = acc * x + c
    return acc


def _s2_factorial_row(prog: Progression, n: int) -> list[int]:
    """S2(n,k) k! for k = 0..n, from one S2 triangle, in int."""
    return [value * math.factorial(k) for k, value in enumerate(s2_triangle(prog, n).row(n))]


def _sigma_row(prog: Progression, n: int) -> list[int]:
    """SigmaS2(n, 0..n+1), in int."""
    row = _s2_factorial_row(prog, n)
    return [(row[j] if j <= n else 0) + (row[j - 1] if j >= 1 else 0) for j in range(n + 2)]


def sigma_s2(prog: Progression, n: int, j: int) -> Fraction:
    """The stacked-coefficient combination S2(n,j) j! + S2(n,j-1) (j-1)!.

    Defined for 0 <= j <= n+1; j = 0 gives a^n and j = n+1 gives d^n n!.
    """
    if n < 0 or j < 0 or j > n + 1:
        raise DomainError(f"index j must lie in 0..{n + 1}, got {j}")
    return Fraction(_sigma_row(prog, n)[j])


def eps_coefficients(prog: Progression, n: int, m: int) -> int:
    """PS(d,a;n,m) read off the e.g.f. e^t sum_j SigmaS2(n,j) t^j/j!.

    m! [t^m] of that series is sum_j C(m,j) SigmaS2(n,j).
    """
    return _egf(prog, n)(m)


def _egf(prog: Progression, n: int) -> Callable[[int], int]:
    _check(n)
    row = _sigma_row(prog, n)

    def at(m: int) -> int:
        _check(m)
        return sum(math.comb(m, j) * s for j, s in enumerate(row))

    return at


def gps_coefficients(prog: Progression, n: int, m: int, route: str = "stacked") -> int:
    """PS(d,a;n,m) read off the o.g.f., by either closed form.

    route "stacked":  sum_k S2(n,k) k! x^k / (1-x)^(k+2),
                      so PS = sum_k S2(n,k) k! C(m+1,k+1)
    route "eulerian": (sum_k rEu(n,k) x^k) / (1-x)^(n+2),
                      so PS = sum_k rEu(n,k) C(m-k+n+1,n+1)

    >>> [int(gps_coefficients(Progression(2, 1), 2, m, "eulerian")) for m in range(3)]
    [1, 10, 35]
    """
    return _ogf(prog, n, route)(m)


def _ogf(prog: Progression, n: int, route: str) -> Callable[[int], int]:
    _check(n)
    if route == "stacked":
        row = _s2_factorial_row(prog, n)

        def at(m: int) -> int:
            _check(m)
            return sum(c * math.comb(m + 1, k + 1) for k, c in enumerate(row))

    elif route == "eulerian":
        row = reu_triangle(prog, n).row(n)

        def at(m: int) -> int:
            _check(m)
            return sum(c * math.comb(m - k + n + 1, n + 1) for k, c in enumerate(row))

    else:
        raise DomainError(f"unknown o.g.f. route {route!r}")
    return at


# The o.g.f. entries are lambdas, not functools.partial, so that they look
# gps_coefficients up in the module globals at call time and a wrapper or
# patch installed there sees every call.
_METHODS = {
    "direct": ps_direct,
    "ordinary": ps_via_ordinary,
    "faulhaber": ps_faulhaber,
    "egf": eps_coefficients,
    "ogf-stacked": lambda prog, n, m: gps_coefficients(prog, n, m, "stacked"),
    "ogf-eulerian": lambda prog, n, m: gps_coefficients(prog, n, m, "eulerian"),
}
METHOD_NAMES = tuple(_METHODS)


def evaluate_method(method: str, prog: Progression, n: int, m: int) -> int | Fraction:
    """Evaluate one named route at a single (n, m) query."""
    if method not in METHOD_NAMES:
        raise DomainError(f"unknown method {method!r}")
    return _METHODS[method](prog, n, m)


def _direct(prog: Progression, n: int) -> Callable[[int], int]:
    _check(n)
    return functools.partial(ps_direct, prog, n)


# Each route's per-(prog, n) stage; the per-m public functions above apply
# the same stage at one m.
_STAGES = {
    "direct": _direct,
    "ordinary": _ordinary,
    "faulhaber": _faulhaber,
    "egf": _egf,
    "ogf-stacked": lambda prog, n: _ogf(prog, n, "stacked"),
    "ogf-eulerian": lambda prog, n: _ogf(prog, n, "eulerian"),
}


def method_evaluator(method: str, prog: Progression, n: int) -> Callable[[int], int | Fraction]:
    """One named route staged at (prog, n): a function of m alone.

    The stage builds once what the route needs from (d, a, n), its
    Bernoulli table, Horner coefficients or integer row, so evaluating at
    many m costs one sum per m.  ``method_evaluator(method, prog, n)(m)``
    equals ``evaluate_method(method, prog, n, m)``.

    >>> at = method_evaluator("ogf-eulerian", Progression(2, 1), 2)
    >>> [int(at(m)) for m in range(3)]
    [1, 10, 35]
    """
    if method not in METHOD_NAMES:
        raise DomainError(f"unknown method {method!r}")
    return _STAGES[method](prog, n)
