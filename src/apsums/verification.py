"""Identity registry behind ``apsums verify`` and the test suite.

Each identity is one ``Identity`` entry in ``IDENTITIES``: its suite, the
check name ``verify`` prints, and a check function that re-derives a family
of quantities along independent routes, compares them bit-exactly and
returns the first mismatch, or ``None`` when the identity holds.  Each suite
declares once how the requested ``depth`` maps to the row count or series
order its checks run at (a few entries bring their own rule), capped so
that ``depth`` stops mattering above ``MAX_DEPTH``; the (d, a) parameter
grids are fixed at desk scale.  Randomized checks draw from a generator
seeded with the entry's own label, so each entry reports the same bytes
whether it runs alone or inside its suite.
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable

from . import bernoulli as bern
from . import eulerian as eul
from . import lah as lahmod
from . import powersum as ps
from . import stirling as st
from .exact import Progression, binomial_general, fallfac, integer_power, risefac
from .fps import DEFAULT_ORDER, Fps, reverse_coefficient_lagrange
from .poly import Polynomial, fallfac_poly, risefac_poly
from .sheffer import identity_triangle
from .symfunc import Alphabet, complete_h, cuboid_volume_oracle, elementary_sigma

__all__ = [
    "CheckResult",
    "IDENTITIES",
    "Identity",
    "MAX_DEPTH",
    "SUITE_NAMES",
    "run_suite",
    "run_suites",
]


@dataclass
class CheckResult:
    suite: str
    name: str
    passed: bool
    detail: str = ""
    expected_fail: bool = False

    @property
    def ok(self) -> bool:
        """True when the result should not fail the gate.

        An expected-fail check confirms a documented discrepancy: failing is
        the healthy outcome, and passing would mean the discrepancy is gone.
        """
        return (not self.passed) if self.expected_fail else self.passed


@dataclass(frozen=True)
class Identity:
    """One registry entry.

    ``check(size(depth), rng)`` returns the first mismatch as a string, or
    ``None`` when the identity holds; ``size`` maps the requested depth to
    the row count or series order the check runs at.  A
    ``printed_three_term`` entry runs only when the caller asks for the
    published Lah variant; an ``expected_fail`` entry is healthy when its
    check finds a mismatch.
    """

    suite: str
    name: str
    check: Callable[[int, random.Random], str | None]
    size: Callable[[int], int]
    printed_three_term: bool = False
    expected_fail: bool = False

    @property
    def label(self) -> str:
        return f"{self.suite}: {self.name}"

    def run(self, depth: int) -> CheckResult:
        mismatch = self.check(self.size(depth), random.Random(self.label))
        if self.expected_fail:
            detail = "" if mismatch else "variant unexpectedly agrees; the documented discrepancy is gone"
            return CheckResult(self.suite, self.name, mismatch is None, detail, expected_fail=True)
        return CheckResult(self.suite, self.name, mismatch is None, mismatch or "")


_REGISTRY: list[Identity] = []


class _Suite:
    """A suite's name and the cap on its row counts and series orders."""

    def __init__(self, name: str, cap: int, low: int = 2, lead: int = 0):
        self.name = name
        self.cap = cap
        self.low = low
        self.lead = lead

    def size(self, depth: int) -> int:
        """``depth + lead``, capped at the suite's cap, but at least ``low``."""
        return max(self.low, min(depth + self.lead, self.cap))

    def identity(
        self,
        name: str,
        size: Callable[[int], int] | None = None,
        printed_three_term: bool = False,
        expected_fail: bool = False,
    ):
        """Decorator: register a check under this suite, sized by the suite
        unless the entry brings its own ``size``."""

        def register(check):
            entry = Identity(self.name, name, check, size or self.size, printed_three_term, expected_fail)
            _REGISTRY.append(entry)
            return check

        return register


_FPS = _Suite("fps", DEFAULT_ORDER)
_S2 = _Suite("s2", 10)
_S1 = _Suite("s1", 8)
_EULERIAN = _Suite("eulerian", 10)
_BERNOULLI = _Suite("bernoulli", 12, low=4, lead=4)
_FAULHABER = _Suite("faulhaber", 8)
_LAH = _Suite("lah", 10)
_SYMFUNC = _Suite("symfunc", 9)
_SUITES = (_FPS, _S2, _S1, _EULERIAN, _BERNOULLI, _FAULHABER, _LAH, _SYMFUNC)

SUITE_NAMES = tuple(suite.name for suite in _SUITES)
# The depth at which every suite's cap binds; a larger depth changes nothing.
MAX_DEPTH = max(suite.cap - suite.lead for suite in _SUITES)


def _progressions(d_max: int) -> list[Progression]:
    return [Progression(d, a) for d in range(1, d_max + 1) for a in range(d + 1)]


def _random_rational(rng: random.Random, nonzero: bool = False, avoid_one: bool = False) -> Fraction:
    while True:
        value = Fraction(rng.randint(-9, 9), rng.randint(1, 7))
        if nonzero and value == 0:
            continue
        if avoid_one and value == 1:
            continue
        return value


def _random_series(rng: random.Random, order: int, unit_constant: bool = False) -> Fps:
    coeffs = [_random_rational(rng) for _ in range(order + 1)]
    if unit_constant:
        coeffs[0] = Fraction(1)
    return Fps(coeffs)


def _egf_from_values(values: Iterable[Fraction], order: int) -> Fps:
    coeffs = [Fraction(v) / math.factorial(n) for n, v in enumerate(values)]
    return Fps(coeffs, order=order)


def _series_diff(lhs: Fps, rhs: Fps) -> str:
    """First mismatching coefficient of two series, for --explain output."""
    for k in range(min(lhs.order, rhs.order) + 1):
        if lhs[k] != rhs[k]:
            return f"coefficient {k}: {lhs[k]} != {rhs[k]} (lhs: {lhs}; rhs: {rhs})"
    return f"orders differ: {lhs.order} vs {rhs.order}"


def _lowered(poly: Polynomial, weight: Callable[[int], Fraction | int]) -> Polynomial:
    """The lowering operator sum_{k >= 1} weight(k) D^k applied to ``poly``."""
    acc = Polynomial()
    deriv = poly.derivative()
    k = 1
    while deriv:
        acc = acc + deriv * weight(k)
        deriv = deriv.derivative()
        k += 1
    return acc


# -- fps / scalar kernel -------------------------------------------------------


@_FPS.identity("scalars: arithmetic keeps gcd(num,den)=1 and den>=1")
def _scalars_normalized(size, rng):
    for _ in range(40):
        x = _random_rational(rng)
        y = _random_rational(rng, nonzero=True)
        z = (x + y) * (x - y) / y + x
        if math.gcd(z.numerator, z.denominator) != 1 or z.denominator < 1:
            return f"unnormalized value {z.numerator}/{z.denominator}"


@_FPS.identity("scalars: binomial symmetry C(n,k) = C(n,n-k)", size=lambda depth: min(depth, _FPS.cap))
def _binomial_symmetry(size, rng):
    for n in range(0, size + 1):
        for k in range(0, n + 1):
            if binomial_general(n, k) != binomial_general(n, n - k):
                return f"binomial symmetry fails at ({n},{k})"


@_FPS.identity("scalars: risefac/fallfac duality and d-rescaling")
def _factorial_duality(size, rng):
    for prog in _progressions(3):
        for n in range(0, 9):
            x = _random_rational(rng)
            if risefac(prog, x, n) != (-1) ** n * fallfac(prog, -x, n):
                return f"duality fails at {prog} n={n} x={x}"
            scaled = Fraction(prog.d) ** n * fallfac(Progression(1, 0), (x - prog.a) / prog.d, n)
            if fallfac(prog, x, n) != scaled:
                return f"rescaling fails at {prog} n={n} x={x}"


@_FPS.identity("series: ring laws of truncated multiplication")
def _ring_laws(order, rng):
    for _ in range(6):
        f = _random_series(rng, order)
        g = _random_series(rng, order)
        h = _random_series(rng, order)
        if (f * g) * h != f * (g * h):
            return "associativity fails"
        if f * g != g * f:
            return "commutativity fails"
        if f * (g + h) != f * g + f * h:
            return "distributivity fails"


@_FPS.identity("series: reversion roundtrip, identity composition, Lagrange crosscheck")
def _reversion(order, rng):
    for _ in range(4):
        coeffs = [Fraction(0), _random_rational(rng, nonzero=True)]
        coeffs += [_random_rational(rng) for _ in range(order - 1)]
        f = Fps(coeffs)
        g = f.reverse()
        if g.reverse() != f:
            return f"double reversion changes {f}"
        if f.compose(g) != Fps.x(order):
            return f"f o f^[-1] is not the identity for {f}"
        for n in range(order + 1):
            if reverse_coefficient_lagrange(f, n, 1) != g[n] * math.factorial(n):
                return f"Lagrange coefficient {n} disagrees with Newton reversion"


@_FPS.identity("series: exp/log inversion and rational-power additivity")
def _exp_log_pow(order, rng):
    for _ in range(4):
        f = _random_series(rng, order, unit_constant=True)
        if f.log().exp() != f:
            return "exp(log(f)) differs from f"
        p = _random_rational(rng)
        q = _random_rational(rng)
        if f.pow(p) * f.pow(q) != f.pow(p + q):
            return f"pow additivity fails for exponents {p}, {q}"


@_FPS.identity("series: factorial-scaling transform roundtrip")
def _factorial_transform(order, rng):
    for _ in range(4):
        f = _random_series(rng, order)
        if f.ogf_to_egf().egf_to_ogf() != f or f.egf_to_ogf().ogf_to_egf() != f:
            return "factorial transform roundtrip changes the series"


# -- second-kind Stirling -------------------------------------------------------


@_S2.identity("four routes agree (recurrence, alternating sum, via ordinary, Sheffer)")
def _s2_four_routes(size, rng):
    for prog in _progressions(4):
        tri = st.s2_triangle(prog, size)
        if tri != st.s2_pair(prog, size).triangle(size):
            return f"{prog}: recurrence and Sheffer coefficient extraction differ"
        for n in range(size + 1):
            for m in range(n + 1):
                e = st.s2_explicit(prog, n, m)
                o = st.s2_from_ordinary(prog, n, m)
                if not (tri.entry(n, m) == e == o):
                    return f"{prog} ({n},{m}): recurrence={tri.entry(n, m)} alternating-sum={e} via-ordinary={o}"


@_S2.identity("column o.g.f. (reciprocal product) reproduces the triangle")
def _s2_column_ogf(size, rng):
    for prog in _progressions(3):
        tri = st.s2_triangle(prog, size)
        for m in range(min(6, size) + 1):
            # product route: (d x)^m / prod_j (1 - (a+dj) x)
            ogf = Fps.one(size)
            for j in range(m + 1):
                ogf = ogf * Fps([1, -prog.term(j)], order=size).reciprocal()
            ogf = ogf.shifted_up(m) * Fraction(prog.d) ** m
            for n in range(size + 1):
                if ogf[n] != tri.entry(n, m):
                    return f"{prog} column {m}: o.g.f. coefficient {n} mismatch"


@_S2.identity("column o.g.f. partial fractions (geometric sums) agree")
def _s2_partial_fractions(size, rng):
    for prog in _progressions(3):
        tri = st.s2_triangle(prog, size)
        for m in range(min(6, size) + 1):
            roots = [Fraction(prog.term(j)) for j in range(m + 1)]
            weights = []
            for j, rj in enumerate(roots):
                denom = Fraction(1)
                for k, rk in enumerate(roots):
                    if k != j:
                        denom *= rj - rk
                weights.append(integer_power(rj, m) / denom)
            for n in range(m, size + 1):
                value = Fraction(prog.d) ** m * sum(
                    (w * integer_power(r, n - m) for w, r in zip(weights, roots)),
                    Fraction(0),
                )
                if value != tri.entry(n, m):
                    return f"{prog} column {m}: partial-fraction value at n={n} mismatch"


@_S2.identity("column-scaled entries are complete homogeneous symmetric functions")
def _s2hat_complete_h(size, rng):
    for prog in _progressions(3):
        s2h = st.s2hat_triangle(prog, size)
        for n in range(size + 1):
            for m in range(n + 1):
                if s2h.entry(n, m) != complete_h(Alphabet(prog, m + 1), n - m):
                    return f"{prog} ({n},{m}): scaled entry is not complete homogeneous"


@_S2.identity("monomials expand over the falling-factorial basis with scaled-row weights")
def _s2_monomial_expansion(size, rng):
    for prog in _progressions(3):
        for n in range(size + 1):
            expanded = Polynomial()
            for m, c in enumerate(st.monomial_in_fallfac(prog, n)):
                expanded = expanded + fallfac_poly(prog, m) * c
            if expanded != Polynomial.monomial(n):
                return f"{prog} degree {n}: falling-factorial expansion is not x^{n}"


@_S2.identity("row polynomials obey the (a + d x + d x D) step")
def _s2_operator_step(size, rng):
    for prog in _progressions(3):
        tri = st.s2_triangle(prog, size)
        d, a = prog.d, prog.a
        for n in range(1, size + 1):
            prev = tri.row_polynomial(n - 1)
            stepped = a * prev + d * Polynomial.x() * prev + d * Polynomial.x() * prev.derivative()
            if stepped != tri.row_polynomial(n):
                return f"{prog} n={n}: operator recurrence fails"


@_S2.identity("row polynomials obey the logarithmic lowering recurrence")
def _s2_lowering(size, rng):
    for prog in _progressions(3):
        tri = st.s2_triangle(prog, size)
        for n in range(1, size + 1):
            acc = _lowered(tri.row_polynomial(n), lambda k: Fraction((-1) ** (k + 1), k))
            if acc * Fraction(1, prog.d) != n * tri.row_polynomial(n - 1):
                return f"{prog} n={n}: lowering operator fails"


@_S2.identity("factorial-scaled triangle matches S2 * m! and has diagonal d^n n!")
def _s2fac_scaling(size, rng):
    for prog in _progressions(3):
        sfac = st.s2fac_triangle(prog, size)
        s2 = st.s2_triangle(prog, size)
        for n in range(size + 1):
            for m in range(n + 1):
                if sfac.entry(n, m) != s2.entry(n, m) * math.factorial(m):
                    return f"{prog} ({n},{m}): factorial-scaled recurrence mismatch"
        if sfac.entry(size, size) != Fraction(prog.d) ** size * math.factorial(size):
            return f"{prog}: diagonal is not d^n n!"


@_S2.identity("factorial-scaled row sums have the geometric-of-exponential e.g.f.")
def _s2fac_row_sum_egf(size, rng):
    for prog in _progressions(3):
        sfac = st.s2fac_triangle(prog, size)
        lhs = _egf_from_values([sum(sfac.row(n), Fraction(0)) for n in range(size + 1)], size)
        rhs = Fps.exp_of(prog.a, size) * (
            Fps.one(size) - (Fps.exp_of(prog.d, size) - 1)
        ).reciprocal()
        if lhs != rhs:
            return f"{prog}: row-sum e.g.f. mismatch; {_series_diff(lhs, rhs)}"


@_S2.identity("column e.g.f. e^(at) (e^(dt)-1)^m / m! reproduces the triangle")
def _s2_column_egf(size, rng):
    for prog in _progressions(3):
        tri = st.s2_triangle(prog, size)
        for m in range(min(4, size) + 1):
            egf = Fps.exp_of(prog.a, size)
            for j in range(1, m + 1):
                egf = egf * (Fps.exp_of(prog.d, size) - 1) / j
            for n in range(m, size + 1):
                if egf.coefficient_times_factorial(n) != tri.entry(n, m):
                    return f"{prog} column {m}: e.g.f. coefficient {n} mismatch"


@_S2.identity("triangle transform of a sequence has e.g.f. g * (A o f)")
def _s2_sequence_transform(size, rng):
    for prog in _progressions(2):
        pair = st.s2_pair(prog, size)
        tri = pair.triangle(size)
        values = [_random_rational(rng) for _ in range(size + 1)]
        transformed = [
            sum((tri.entry(n, m) * values[m] for m in range(n + 1)), Fraction(0))
            for n in range(size + 1)
        ]
        lhs = _egf_from_values(transformed, size)
        rhs = pair.g * _egf_from_values(values, size).compose(pair.f)
        if lhs != rhs:
            return f"{prog}: transformed sequence e.g.f. is not g * (A o f); {_series_diff(lhs, rhs)}"


@_S2.identity("row-polynomial e.g.f. equals g(t) e^(x f(t))")
def _s2_row_polynomial_egf(size, rng):
    for prog in _progressions(2):
        pair = st.s2_pair(prog, size)
        tri = pair.triangle(size)
        for _ in range(5):
            x = _random_rational(rng)
            lhs = _egf_from_values([tri.row_polynomial(n).evaluate(x) for n in range(size + 1)], size)
            rhs = pair.g * (pair.f * x).exp()
            if lhs != rhs:
                return f"{prog} x={x}: row-polynomial e.g.f. mismatch; {_series_diff(lhs, rhs)}"


@_S2.identity("ordinary values recovered from any [d,a] family (a >= 1)")
def _s2_ordinary_recovery(size, rng):
    ordinary = st.s2_triangle(Progression(1, 0), size)
    for prog in _progressions(4):
        if prog.a == 0:
            continue
        for n in range(size + 1):
            for m in range(n + 1):
                if st.s2_ordinary_from_general(prog, n, m) != ordinary.entry(n, m):
                    return f"{prog} ({n},{m}): ordinary recovery fails"


# -- first-kind Stirling ----------------------------------------------------------


@_S1.identity("five routes agree (recurrence, symmetric fn, via ordinary, both triple sums)")
def _s1_five_routes(size, rng):
    for prog in _progressions(3):
        tri = st.s1phat_triangle(prog, size)
        for n in range(size + 1):
            for m in range(n + 1):
                routes = {
                    "sigma": st.s1phat_from_sigma(prog, n, m),
                    "via-ordinary": st.s1phat_from_ordinary(prog, n, m),
                    "triple-sum": st.s1phat_schlomilch(prog, n, m),
                    "triple-sum-reordered": st.s1phat_schlomilch_v2(prog, n, m),
                }
                wrong = {k: v for k, v in routes.items() if v != tri.entry(n, m)}
                if wrong:
                    return f"{prog} ({n},{m}): recurrence={tri.entry(n, m)} but {wrong}"


@_S1.identity("classical first-kind values from the double-binomial second-kind sum")
def _s1_classical(size, rng):
    ordinary = st.s1phat_triangle(Progression(1, 0), size)
    for n in range(size + 1):
        for m in range(n + 1):
            if st.s1p_ordinary_schlomilch(n, m) != ordinary.entry(n, m):
                return f"({n},{m}): classical double-binomial sum mismatch"


# the group inverse multiplies larger triangles than the rest of the suite
@_S1.identity(
    "group inverse: S2 and S1 triangles multiply to the identity",
    size=lambda depth: max(2, min(depth + 4, DEFAULT_ORDER)),
)
def _s1_group_inverse(inv_size, rng):
    for prog in _progressions(4):
        s2 = st.s2_triangle(prog, inv_size)
        s1 = st.s1_triangle(prog, inv_size)
        if s1 != st.s1_pair(prog, inv_size).triangle(inv_size):
            return f"{prog}: integer-built S1 and Sheffer coefficient extraction differ"
        if s2.multiply(s1) != identity_triangle(inv_size):
            return f"{prog}: S2 * S1 is not the identity"
        if s1.multiply(s2) != identity_triangle(inv_size):
            return f"{prog}: S1 * S2 is not the identity"


@_S1.identity("scaled inverse pair: |signed triangle| = non-negative triangle")
def _s1_scaled_inverse(size, rng):
    for prog in _progressions(3):
        s1hat = st.s1hat_pair(prog, size).triangle(size)
        s1phat = st.s1phat_triangle(prog, size)
        if st.s2hat_triangle(prog, size).inverse() != s1hat:
            return f"{prog}: scaled second-kind inverse is not the signed first-kind triangle"
        if s1hat.signed() != s1phat or s1hat.unsigned() != s1phat:
            return f"{prog}: sign pattern (-1)^(n-m) broken"


@_S1.identity("row polynomials are the generalized rising factorials")
def _s1_rising(size, rng):
    for prog in _progressions(3):
        tri = st.s1phat_triangle(prog, size)
        for n in range(size + 1):
            if tri.row_polynomial(n) != risefac_poly(prog, n):
                return f"{prog} n={n}: row polynomial is not the rising factorial"


@_S1.identity("signed-triangle row polynomials are the generalized falling factorials")
def _s1_falling(size, rng):
    for prog in _progressions(3):
        s1hat = st.s1hat_pair(prog, size).triangle(size)
        for n in range(size + 1):
            if s1hat.row_polynomial(n) != fallfac_poly(prog, n):
                return f"{prog} n={n}: signed row polynomial is not the falling factorial"


@_S1.identity("monic row polynomials obey the factorial lowering recurrence")
def _s1_lowering(size, rng):
    for prog in _progressions(3):
        tri = st.s1phat_triangle(prog, size)
        d = prog.d
        for n in range(1, size + 1):
            acc = _lowered(
                tri.row_polynomial(n), lambda k: Fraction((-d) ** (k - 1), math.factorial(k))
            )
            if acc != n * tri.row_polynomial(n - 1):
                return f"{prog} n={n}: factorial lowering operator fails"


@_S1.identity("row polynomials obey P(n,x) = (x+a) P(n-1, x+d)")
def _s1_forward_shift(size, rng):
    for prog in _progressions(3):
        tri = st.s1phat_triangle(prog, size)
        for n in range(1, size + 1):
            stepped = Polynomial([prog.a, 1]) * tri.row_polynomial(n - 1).shifted(prog.d)
            if stepped != tri.row_polynomial(n):
                return f"{prog} n={n}: forward shift recurrence fails"


@_S1.identity("falling factorials have e.g.f. (1 + d t)^((x-a)/d)")
def _s1_falling_egf(size, rng):
    for prog in _progressions(3):
        for _ in range(3):
            x = _random_rational(rng)
            lhs = _egf_from_values([fallfac(prog, x, m) for m in range(size + 1)], size)
            rhs = Fps([1, prog.d], order=size).pow((x - prog.a) / prog.d)
            if lhs != rhs:
                return f"{prog} x={x}: falling-factorial e.g.f. mismatch; {_series_diff(lhs, rhs)}"


@_S1.identity("column e.g.f. (1-dt)^(-a/d) (-log(1-dt)/d)^m / m! reproduces the triangle")
def _s1_column_egf(size, rng):
    for prog in _progressions(3):
        tri = st.s1phat_triangle(prog, size)
        base = Fps([1, -prog.d], order=size)
        f = -(base.log()) / prog.d
        column = base.pow(Fraction(-prog.a, prog.d))
        for m in range(min(4, size) + 1):
            if m > 0:
                column = column * f / m
            for n in range(m, size + 1):
                if column.coefficient_times_factorial(n) != tri.entry(n, m):
                    return f"{prog} column {m}: e.g.f. coefficient {n} mismatch"


@_S1.identity("row-polynomial e.g.f. equals (1 - d t)^(-(a+x)/d)")
def _s1_row_polynomial_egf(size, rng):
    for prog in _progressions(3):
        tri = st.s1phat_triangle(prog, size)
        for _ in range(5):
            x = _random_rational(rng)
            lhs = _egf_from_values([tri.row_polynomial(n).evaluate(x) for n in range(size + 1)], size)
            rhs = Fps([1, -prog.d], order=size).pow(-(prog.a + x) / prog.d)
            if lhs != rhs:
                return f"{prog} x={x}: bivariate e.g.f. mismatch; {_series_diff(lhs, rhs)}"


@_S1.identity("pair algebra is a homomorphism onto triangle algebra")
def _pair_algebra(size, rng):
    pair_specs = [
        (st.s1phat_pair(Progression(2, 1), size), st.s2hat_pair(Progression(2, 1), size)),
        (st.s2_pair(Progression(3, 2), size), st.s1phat_pair(Progression(2, 1), size)),
    ]
    for p1, p2 in pair_specs:
        if p1.multiply(p2).triangle(size) != p1.triangle(size).multiply(p2.triangle(size)):
            return f"pair product {p1.label} * {p2.label} breaks the homomorphism"
    for prog in _progressions(2):
        pair = st.s2_pair(prog, size)
        inv = pair.inverse()
        if inv.triangle(size) != pair.triangle(size).inverse():
            return f"{prog}: pair inverse does not match matrix inverse"
        double = inv.inverse()
        if double.g != pair.g.truncated(double.g.order) or double.f != pair.f.truncated(double.f.order):
            return f"{prog}: double inverse is not an involution"
        if pair.multiply(inv).triangle(size) != identity_triangle(size):
            return f"{prog}: pair times inverse is not the identity pair"


# -- Eulerian ---------------------------------------------------------------------


@_EULERIAN.identity("four routes agree (recurrence, explicit, from S2fac, from ordinary)")
def _reu_four_routes(size, rng):
    for prog in _progressions(3):
        tri = eul.reu_triangle(prog, size)
        for n in range(size + 1):
            for m in range(n + 1):
                routes = {
                    "explicit": eul.reu_explicit(prog, n, m),
                    "from-s2fac": eul.reu_from_s2fac(prog, n, m),
                    "from-ordinary": eul.reu_from_ordinary(prog, n, m),
                }
                wrong = {k: v for k, v in routes.items() if v != tri.entry(n, m)}
                if wrong:
                    return f"{prog} ({n},{m}): recurrence={tri.entry(n, m)} but {wrong}"


@_EULERIAN.identity("inverse relation recovers S2(n,m) m! from the Eulerian row")
def _reu_inverse_relation(size, rng):
    for prog in _progressions(3):
        s2 = st.s2_triangle(prog, size)
        for n in range(size + 1):
            for m in range(n + 1):
                if eul.s2fac_from_reu(prog, n, m) != s2.entry(n, m) * math.factorial(m):
                    return f"{prog} ({n},{m}): inverse relation fails"


@_EULERIAN.identity("reordering transform roundtrips exactly on random vectors")
def _reorder_roundtrip(size, rng):
    for n in range(0, size + 1):
        vec = [Fraction(rng.randint(-20, 20)) for _ in range(n + 1)]
        if eul.reorder_a_to_b(eul.reorder_b_to_a(vec, n), n) != vec:
            return f"roundtrip fails at degree {n}"
        if eul.reorder_b_to_a(eul.reorder_a_to_b(vec, n), n) != vec:
            return f"reverse roundtrip fails at degree {n}"


@_EULERIAN.identity("power o.g.f. equals numerator polynomial over (1-x)^(n+1)")
def _reu_power_ogf(size, rng):
    poly_size = min(size, 8)
    geom = Fps.geometric(1, 12)
    for prog in _progressions(3):
        tri = eul.reu_triangle(prog, poly_size)
        for n in range(poly_size + 1):
            powers = Fps([integer_power(prog.term(m), n) for m in range(13)])
            denom = Fps.one(12)
            for _ in range(n + 1):
                denom = denom * geom
            if powers != Fps(tri.row(n), order=12) * denom:
                return f"{prog} n={n}: power o.g.f. decomposition fails"


@_EULERIAN.identity("numerator polynomial equals (1-x)^n-twisted factorial-scaled row")
def _reu_from_s2fac_polynomial(size, rng):
    poly_size = min(size, 8)
    one_minus_x = Polynomial([1, -1])
    for prog in _progressions(3):
        tri = eul.reu_triangle(prog, poly_size)
        sfac = st.s2fac_triangle(prog, poly_size)
        for n in range(poly_size + 1):
            acc = Polynomial()
            for m in range(n + 1):
                acc = acc + Polynomial.monomial(m) * one_minus_x ** (n - m) * sfac.entry(n, m)
            if acc != tri.row_polynomial(n):
                return f"{prog} n={n}: cleared-denominator polynomial identity fails"


@_EULERIAN.identity(
    "bivariate e.g.f. (1-x) e^(a(1-x)t) / (1 - x e^(d(1-x)t)) matches",
    size=lambda depth: min(depth, _EULERIAN.cap),
)
def _reu_bivariate_egf(order, rng):
    for prog in _progressions(2):
        tri = eul.reu_triangle(prog, order)
        for _ in range(5):
            x = _random_rational(rng, avoid_one=True)
            lhs = _egf_from_values([tri.row_polynomial(n).evaluate(x) for n in range(order + 1)], order)
            rhs = (
                Fps.exp_of(prog.a * (1 - x), order)
                * (Fps.one(order) - Fps.exp_of(prog.d * (1 - x), order) * x).reciprocal()
                * (1 - x)
            )
            if lhs != rhs:
                return f"{prog} x={x}: bivariate e.g.f. mismatch; {_series_diff(lhs, rhs)}"


@_EULERIAN.identity("row sums equal d^n n! independently of a")
def _reu_row_sums(size, rng):
    for prog in _progressions(4):
        tri = eul.reu_triangle(prog, size)
        for n in range(size + 1):
            if sum(tri.row(n), Fraction(0)) != Fraction(prog.d) ** n * math.factorial(n):
                return f"{prog} n={n}: row sum is not d^n n!"


@_EULERIAN.identity("parameter flip a -> d-a reverses every row")
def _reu_row_reversal(size, rng):
    rows = min(size, 8)
    for d in range(2, 6):
        for a in range(1, d):
            t1 = eul.reu_triangle(Progression(d, d - a), rows)
            t2 = eul.reu_triangle(Progression(d, a), rows)
            for n in range(rows + 1):
                if list(t1.row(n)) != list(reversed(t2.row(n))):
                    return f"d={d} a={a} n={n}: row reversal symmetry fails"


@_EULERIAN.identity("the extended explicit sum vanishes just past the diagonal")
def _reu_degree_bound(size, rng):
    for prog in _progressions(3):
        for n in range(size + 1):
            # the coefficient beyond the triangle must vanish: the numerator
            # polynomial of the partial-sum o.g.f. has degree n, not n+1.
            acc = Fraction(0)
            for p in range(n + 2):
                sign = -1 if (n + 1 - p) % 2 else 1
                acc += sign * math.comb(n + 1, n + 1 - p) * integer_power(prog.term(p), n)
            if acc != 0:
                return f"{prog} n={n}: degree bound violated"


@_EULERIAN.identity("column zero carries the pure powers a^n")
def _reu_column_zero(size, rng):
    for prog in _progressions(4):
        tri = eul.reu_triangle(prog, size)
        for n in range(size + 1):
            if tri.entry(n, 0) != integer_power(prog.a, n):
                return f"{prog} n={n}: column 0 is not a^n"


# -- Bernoulli ---------------------------------------------------------------------


_BERNOULLI_FIRST_13 = [
    Fraction(1),
    Fraction(-1, 2),
    Fraction(1, 6),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(1, 42),
    Fraction(0),
    Fraction(-1, 30),
    Fraction(0),
    Fraction(5, 66),
    Fraction(0),
    Fraction(-691, 2730),
]


@_BERNOULLI.identity("recursion reproduces the canonical first thirteen numbers")
def _bernoulli_canonical(size, rng):
    values = bern.bernoulli_numbers(12)
    if values != _BERNOULLI_FIRST_13:
        return f"got {values}"


@_BERNOULLI.identity("two-parameter numbers agree along both routes")
def _b_gen_routes(n_cap, rng):
    for prog in _progressions(4):
        binomial_route = bern.b_gen_numbers(prog, n_cap)
        for n in range(n_cap + 1):
            lhs = bern.b_gen(prog, n)
            if lhs != binomial_route[n]:
                return f"{prog} n={n}: alternating-sum route {lhs} != binomial route {binomial_route[n]}"


@_BERNOULLI.identity("number e.g.f. equals d t e^(at) / (e^(dt) - 1)")
def _b_gen_egf(order, rng):
    for prog in _progressions(4):
        lhs = _egf_from_values(bern.b_gen_numbers(prog, order), order)
        rhs = bern.b_gen_egf(prog, order)
        if lhs != rhs:
            return f"{prog}: number e.g.f. mismatch; {_series_diff(lhs, rhs)}"


@_BERNOULLI.identity("polynomial routes (convolve numbers vs shifted powers) agree")
def _b_gen_poly_routes(n_cap, rng):
    for prog in _progressions(3):
        for n in range(min(n_cap, 10) + 1):
            if bern.b_gen_poly(prog, n) != bern.b_gen_poly_via_ordinary(prog, n):
                return f"{prog} n={n}: polynomial routes disagree"


@_BERNOULLI.identity("polynomial system e.g.f. equals the Appell product with e^(xt)")
def _b_gen_poly_egf(n_cap, rng):
    order = min(n_cap, 10)
    for prog in _progressions(2):
        for _ in range(5):
            x = _random_rational(rng)
            lhs = _egf_from_values([bern.b_gen_poly(prog, n).evaluate(x) for n in range(order + 1)], order)
            if lhs != bern.b_gen_egf(prog, order) * Fps.exp_of(x, order):
                return f"{prog} x={x}: bivariate polynomial e.g.f. mismatch"


@_BERNOULLI.identity("one-parameter polynomial e.g.f. equals d t e^(xt) / (e^(dt) - 1)")
def _b_d_poly_egf(n_cap, rng):
    order = min(n_cap, 10)
    for d in range(1, 5):
        for _ in range(5):
            x = _random_rational(rng)
            lhs = _egf_from_values([bern.b_d_poly(d, n).evaluate(x) for n in range(order + 1)], order)
            if lhs != bern.b_gen_egf(Progression(d, 0), order) * Fps.exp_of(x, order):
                return f"d={d} x={x}: one-parameter bivariate e.g.f. mismatch"


@_BERNOULLI.identity("the (-a)-convolution contracts to the a-independent numbers")
def _b_gen_contraction(n_cap, rng):
    for d in range(1, 5):
        expected = bern.b_d_numbers(d, n_cap)
        for a in range(0, 5):
            values = bern.b_gen_numbers(Progression(d, a), n_cap)
            for n in range(n_cap + 1):
                acc = Fraction(0)
                for m in range(n + 1):
                    acc += math.comb(n, m) * values[n - m] * integer_power(Fraction(-a), m)
                if acc != expected[n]:
                    return f"d={d} a={a} n={n}: contraction does not drop a"


@_BERNOULLI.identity("one-parameter polynomials satisfy P' = n P(n-1)")
def _b_d_appell(n_cap, rng):
    for d in range(1, 5):
        for n in range(1, n_cap + 1):
            if bern.b_d_poly(d, n).derivative() != n * bern.b_d_poly(d, n - 1):
                return f"d={d} n={n}: Appell derivative property fails"


@_BERNOULLI.identity("parameter flip a -> d-a flips odd-index signs only")
def _b_gen_parity(n_cap, rng):
    for d in range(2, 6):
        for a in range(1, d):
            flipped = bern.b_gen_numbers(Progression(d, d - a), n_cap)
            values = bern.b_gen_numbers(Progression(d, a), n_cap)
            for n in range(n_cap + 1):
                if flipped[n] != (-1) ** n * values[n]:
                    return f"d={d} a={a} n={n}: parity relation fails"


@_BERNOULLI.identity("[1,0] reduces to the ordinary numbers and polynomials")
def _b_gen_reduction(n_cap, rng):
    numbers = bern.bernoulli_numbers(n_cap)
    for n in range(n_cap + 1):
        if bern.b_gen(Progression(1, 0), n) != numbers[n]:
            return f"n={n}: [1,0] reduction fails for numbers"
    for n in range(min(n_cap, 8) + 1):
        if bern.b_gen_poly(Progression(1, 0), n) != bern.bernoulli_poly(n):
            return f"n={n}: [1,0] reduction fails for polynomials"


# -- Faulhaber / power sums ----------------------------------------------------------


@_FAULHABER.identity("all five formula routes equal direct summation")
def _power_sum_routes(size, rng):
    m_cap = 12
    for prog in _progressions(4):
        for n in range(size + 1):
            direct_row = [ps.ps_direct(prog, n, m) for m in range(m_cap + 1)]
            egf_row = ps.eps_coefficients(prog, n, m_cap)
            stacked_row = ps.gps_coefficients(prog, n, m_cap, route="stacked")
            eulerian_row = ps.gps_coefficients(prog, n, m_cap, route="eulerian")
            for m in range(m_cap + 1):
                values = {
                    "ordinary": ps.ps_via_ordinary(prog, n, m),
                    "faulhaber": ps.ps_faulhaber(prog, n, m),
                    "egf": egf_row[m],
                    "ogf-stacked": stacked_row[m],
                    "ogf-eulerian": eulerian_row[m],
                }
                wrong = {k: v for k, v in values.items() if v != direct_row[m]}
                if wrong:
                    return f"{prog} n={n} m={m}: direct={direct_row[m]} but {wrong}"


@_FAULHABER.identity("spot value: odd squares 1+9+25 through the generalized formula")
def _power_sum_spot_value(size, rng):
    spot = ps.ps_faulhaber(Progression(2, 1), 2, 2)
    if spot != 35:
        return f"got {spot}"


@_FAULHABER.identity("single powers come out of both generating functions")
def _single_powers(size_n, rng):
    geom = Fps.geometric(1, 10)
    for prog in _progressions(3):
        tri = st.s2_triangle(prog, size_n)
        reu = eul.reu_triangle(prog, size_n)
        for n in range(size_n + 1):
            egf = Fps.exp_of(1, 10) * Fps([tri.entry(n, k) for k in range(n + 1)], order=10)
            ogf = Fps.zero(10)
            power = geom
            for k in range(n + 1):
                ogf = ogf + power.shifted_up(k) * (tri.entry(n, k) * math.factorial(k))
                power = power * geom
            # sum_k rEu(n,k) x^k / (1-x)^(n+1)
            eulerian = Fps(reu.row(n), order=10)
            for _ in range(n + 1):
                eulerian = eulerian * geom
            for m in range(10 + 1):
                want = integer_power(prog.term(m), n)
                if egf.coefficient_times_factorial(m) != want:
                    return f"{prog} n={n} m={m}: powers e.g.f. fails"
                if ogf[m] != want:
                    return f"{prog} n={n} m={m}: powers o.g.f. fails"
                if eulerian[m] != want:
                    return f"{prog} n={n} m={m}: powers Eulerian o.g.f. fails"


@_FAULHABER.identity("binomial splitting over the ordinary power sums")
def _binomial_splitting(size, rng):
    base = Progression(1, 0)
    for prog in _progressions(4):
        for n in range(size + 1):
            for m in range(0, 9):
                acc = Fraction(0)
                for k in range(n + 1):
                    acc += (
                        math.comb(n, k)
                        * integer_power(prog.a, n - k)
                        * prog.d**k
                        * ps.ps_direct(base, k, m)
                    )
                if acc != ps.ps_direct(prog, n, m):
                    return f"{prog} n={n} m={m}: binomial splitting fails"


@_FAULHABER.identity("stacked e.g.f. coefficients equal the reordered Eulerian row")
def _stacked_coefficients(size, rng):
    for prog in _progressions(3):
        for n in range(size + 1):
            reu_row = [eul.reu_explicit(prog, n, i) for i in range(n + 1)] + [Fraction(0)]
            b_side = eul.reorder_a_to_b(reu_row, n + 1)
            for j in range(n + 2):
                if b_side[j] != ps.sigma_s2(prog, n, j):
                    return f"{prog} n={n} j={j}: stacked coefficients mismatch"


# -- Lah ------------------------------------------------------------------------------


@_LAH.identity("product, Sheffer, four-term and three-term routes agree")
def _lah_routes(size, rng):
    for prog in _progressions(3):
        tri = lahmod.lah_triangle(prog, size)
        routes = {
            "sheffer": lahmod.lah_sheffer_triangle(prog, size),
            "four-term": lahmod.lah_four_term(prog, size),
            "three-term": lahmod.lah_three_term(prog, size),
        }
        for label, other in routes.items():
            if other != tri:
                return f"{prog}: {label} route disagrees with the triangle product"


@_LAH.identity("transition identities between rising and falling factorials")
def _lah_transitions(size, rng):
    poly_size = min(size, 8)
    for prog in _progressions(3):
        tri = lahmod.lah_triangle(prog, poly_size)
        inv = lahmod.lah_inverse(prog, poly_size)
        for n in range(poly_size + 1):
            rise = Polynomial()
            fall = Polynomial()
            for m in range(n + 1):
                rise = rise + fallfac_poly(prog, m) * tri.entry(n, m)
                fall = fall + risefac_poly(prog, m) * inv.entry(n, m)
            if rise != risefac_poly(prog, n):
                return f"{prog} n={n}: rising-in-falling transition fails"
            if fall != fallfac_poly(prog, n):
                return f"{prog} n={n}: falling-in-rising transition fails"


@_LAH.identity("inverse triangle: signed entries, own recurrence, identity product")
def _lah_inverse(size, rng):
    for prog in _progressions(3):
        tri = lahmod.lah_triangle(prog, size)
        inv = lahmod.lah_inverse(prog, size)
        if tri.multiply(inv) != identity_triangle(size) or inv.multiply(tri) != identity_triangle(size):
            return f"{prog}: L * L^(-1) is not the identity"
        for n in range(size + 1):
            for m in range(n + 1):
                if inv.entry(n, m) != tri.entry(n, m) * ((-1) ** (n - m)):
                    return f"{prog} ({n},{m}): inverse is not the signed triangle"
        if lahmod.lah_inverse_four_term(prog, size) != inv:
            return f"{prog}: sign-flipped four-term recurrence fails for the inverse"
        if lahmod.lah_inverse_pair(prog, size).triangle(size) != inv:
            return f"{prog}: inverse Sheffer pair disagrees with signing"


@_LAH.identity("row polynomials obey the geometric lowering recurrence")
def _lah_lowering(size, rng):
    poly_size = min(size, 8)
    for prog in _progressions(3):
        tri = lahmod.lah_triangle(prog, poly_size)
        d = prog.d
        for n in range(1, poly_size + 1):
            acc = _lowered(tri.row_polynomial(n), lambda k: (-d) ** (k - 1))
            if acc != n * tri.row_polynomial(n - 1):
                return f"{prog} n={n}: geometric lowering operator fails"


@_LAH.identity("second-order raising and plain lowering recurrences (both signs)")
def _lah_raising(size, rng):
    poly_size = min(size, 8)
    x = Polynomial.x()
    for prog in _progressions(3):
        tri = lahmod.lah_triangle(prog, poly_size)
        inv = lahmod.lah_inverse(prog, poly_size)
        d, a = prog.d, prog.a
        for n in range(1, poly_size + 1):
            p = tri.row_polynomial(n - 1)
            stepped = (
                Polynomial([2 * a, 1]) * p
                + Polynomial([a, 1]) * p.derivative() * (2 * d)
                + x * p.derivative().derivative() * d**2
            )
            if stepped != tri.row_polynomial(n):
                return f"{prog} n={n}: second-order raising operator fails"
            q = inv.row_polynomial(n - 1)
            stepped_inv = (
                Polynomial([-2 * a, 1]) * q
                - Polynomial([-a, 1]) * q.derivative() * (2 * d)
                + x * q.derivative().derivative() * d**2
            )
            if stepped_inv != inv.row_polynomial(n):
                return f"{prog} n={n}: inverse raising operator fails"
            acc = _lowered(inv.row_polynomial(n), lambda k: d ** (k - 1))
            if acc != n * inv.row_polynomial(n - 1):
                return f"{prog} n={n}: inverse lowering operator fails"


@_LAH.identity("a- and z-sequences match their closed forms", size=lambda depth: min(depth, 8))
def _lah_a_z_sequences(order, rng):
    for prog in _progressions(3):
        a_seq, z_seq = lahmod.lah_pair(prog, order + 1).a_z_sequences(order)
        if a_seq != Fps([1, prog.d], order=order):
            return f"{prog}: a-sequence is not 1 + d y"
        base = Fps([1, prog.d], order=order + 1)
        closed = base * (Fps.one(order + 1) - base.pow(Fraction(-2 * prog.a, prog.d)))
        if z_seq != closed.shifted_down(1).truncated(order):
            return f"{prog}: z-sequence closed form mismatch"


@_LAH.identity("column zero equals the doubled-offset rising product")
def _lah_column_zero(size, rng):
    for prog in _progressions(3):
        col = lahmod.lah_column0(prog, size)
        for n in range(size + 1):
            product = Fraction(1)
            for j in range(n):
                product *= 2 * prog.a + j * prog.d
            if col[n] != product:
                return f"{prog} n={n}: column 0 is not prod(2a + jd)"


def _lah_published_three_term(prog: Progression, size: int, rng: random.Random) -> str | None:
    if lahmod.lah_three_term(prog, size, printed=True) != lahmod.lah_triangle(prog, size):
        return f"variant unexpectedly diverges at d={prog.d}"


# The published recurrence carries a coefficient misprint: it reproduces the
# triangle only at d = 1, so the d >= 2 entries are expected to fail.
for _prog in _progressions(3):
    _LAH.identity(
        f"published three-term variant reproduces the triangle at d={_prog.d} a={_prog.a}",
        printed_three_term=True,
        expected_fail=_prog.d >= 2,
    )(functools.partial(_lah_published_three_term, _prog))


# -- symmetric functions ----------------------------------------------------------------


@_SYMFUNC.identity("generating-product builders match brute-force box enumeration")
def _symfunc_enumeration(size, rng):
    for prog in _progressions(3):
        for count in range(0, 7):
            alphabet = Alphabet(prog, count)
            for degree in range(0, min(count, 6) + 1):
                if elementary_sigma(alphabet, degree) != cuboid_volume_oracle(
                    alphabet, degree, distinct=True
                ):
                    return f"{prog} count={count} degree={degree}: sigma != enumeration"
            for degree in range(0, 7):
                if count == 0 and degree > 0:
                    continue
                if complete_h(alphabet, degree) != cuboid_volume_oracle(
                    alphabet, degree, distinct=False
                ):
                    return f"{prog} count={count} degree={degree}: h != enumeration"


@_SYMFUNC.identity("triangle entries are symmetric functions of the progression")
def _symfunc_triangle_entries(size, rng):
    for prog in _progressions(3):
        s2h = st.s2hat_triangle(prog, size)
        s1ph = st.s1phat_triangle(prog, size)
        for n in range(size + 1):
            for m in range(n + 1):
                if s2h.entry(n, m) != complete_h(Alphabet(prog, m + 1), n - m):
                    return f"{prog} ({n},{m}): second-kind complete-h identity fails"
                if s1ph.entry(n, m) != elementary_sigma(Alphabet(prog, n), n - m):
                    return f"{prog} ({n},{m}): first-kind elementary identity fails"


@_SYMFUNC.identity("alternating sigma/h convolution vanishes (builder cross-guard)")
def _symfunc_duality(size, rng):
    for prog in _progressions(3):
        for count in range(1, 6):
            alphabet = Alphabet(prog, count)
            for r in range(1, 7):
                acc = Fraction(0)
                for k in range(0, r + 1):
                    if k > count:
                        break
                    sign = -1 if k % 2 else 1
                    acc += sign * elementary_sigma(alphabet, k) * complete_h(alphabet, r - k)
                if acc != 0:
                    return f"{prog} count={count} r={r}: duality sum is {acc}"


@_SYMFUNC.identity("at [1,0] the zero symbol can be dropped from the alphabet")
def _symfunc_zero_symbol(size, rng):
    ordinary = st.s2_triangle(Progression(1, 0), size)
    for n in range(size + 1):
        for m in range(n + 1):
            # the zero symbol contributes nothing: m active symbols 1..m suffice
            if complete_h(Alphabet(Progression(1, 1), m), n - m) != ordinary.entry(n, m):
                return f"({n},{m}): dropping the zero symbol changes the value"


# -- driver -------------------------------------------------------------------------------


IDENTITIES: tuple[Identity, ...] = tuple(_REGISTRY)


def run_suite(name: str, depth: int, include_printed_three_term: bool = False) -> list[CheckResult]:
    if name not in SUITE_NAMES:
        raise ValueError(f"unknown suite {name!r}")
    return [
        entry.run(depth)
        for entry in IDENTITIES
        if entry.suite == name and (include_printed_three_term or not entry.printed_three_term)
    ]


def run_suites(
    names: Iterable[str], depth: int, include_printed_three_term: bool = False
) -> list[CheckResult]:
    results: list[CheckResult] = []
    for name in names:
        results.extend(run_suite(name, depth, include_printed_three_term))
    return results
