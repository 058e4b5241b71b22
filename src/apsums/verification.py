"""Identity registry behind ``apsums verify`` and the test suite.

Each identity is one ``Identity`` entry in ``IDENTITIES``: its suite, the
check name ``verify`` prints, and a check function that re-derives a family
of quantities along independent routes, compares them bit-exactly and
returns the first mismatch, or ``None`` when the identity holds.  Each
entry's ``size`` rule maps the requested ``depth`` to the row count or
series order its check runs at; the rule is its suite's, with per-entry
overrides, and is capped so that ``depth`` stops mattering above
``MAX_DEPTH``.  The (d, a) parameter grids are fixed at desk scale.
Randomized checks draw from a generator seeded with the entry's own label,
so each entry reports the same bytes whether it runs alone or inside its
suite.

Each identity is stated once, here.  Where a test also checks a law on
inputs of its own, the law is a function ``_..._violation`` that takes
those inputs and returns the mismatch or ``None``; the entry loops over
its grid and calls it.  A test that checks a whole entry names it through
the ``identity`` fixture; a test that checks a registered law on its own
inputs calls that law's function.

An entry that compares two triangles entry by entry is a row of ``_ROUTES``
registered by ``_Suite.compare``: its grid, its builder and its named
routes, with the table's one mismatch text.  Every route is a triangle
builder ``(prog, size)`` that stages what depends on (prog, size) once,
but for five closed forms ``(prog, n, m)`` of one entry each, which
``_entries`` turns into builders.  ``s2_explicit``, ``s1phat_from_sigma``
and ``reu_explicit`` stay per entry because the benchmark's oracle
(``bench/oracle.py``) calls them per entry; the two ``complete_h`` routes
have no staged form.  The entry builds its row each time its check runs,
so a patched module attribute reaches it.  The route-mutation test in
``tests/test_cli.py`` breaks every route of every row in turn.

``Identity.run`` alone decides an entry's verdict, the ``status`` of its
``CheckResult``; callers print and count it.
"""

from __future__ import annotations

import functools
import math
import random
from collections.abc import Callable, Iterable
from fractions import Fraction

from . import bernoulli as bern
from . import eulerian as eul
from . import lah as lahmod
from . import powersum as ps
from . import stirling as st
from .errors import DomainError
from .exact import Progression, _common_denominator, _FrozenRecord, fallfac, integer_power, risefac
from .fps import DEFAULT_ORDER, Fps, reverse_coefficient_lagrange
from .poly import Polynomial, fallfac_poly, risefac_poly
from .sheffer import ShefferPair, Triangle, _triangle, identity_triangle
from .symfunc import Alphabet, complete_h, cuboid_volume_oracle, elementary_sigma

__all__ = [
    "CheckResult",
    "IDENTITIES",
    "Identity",
    "MAX_DEPTH",
    "SUITE_NAMES",
    "run_suite",
]


class CheckResult(_FrozenRecord):
    """One entry's verdict: ``status`` is ``"ok"``, ``"xfail"`` (a documented
    discrepancy confirmed) or ``"FAIL"``; only a ``"FAIL"`` carries a
    ``detail``."""

    __slots__ = ("suite", "name", "status", "detail")

    def __init__(self, suite: str, name: str, status: str, detail: str = "") -> None:
        self._set(suite, name, status, detail)


class _SizeRule(_FrozenRecord):
    """The row count or series order a check runs at for a requested depth:
    ``depth + lead``, capped at ``cap``, but at least ``low``."""

    __slots__ = ("cap", "low", "lead")

    def __init__(self, cap: int, low: int = 2, lead: int = 0) -> None:
        self._set(cap, low, lead)

    def __call__(self, depth: int) -> int:
        return max(self.low, min(depth + self.lead, self.cap))


class Identity(_FrozenRecord):
    """One registry entry.

    ``check(size(depth), rng)`` returns the first mismatch as a string, or
    ``None`` when the identity holds; ``size`` maps the requested depth to
    the row count or series order the check runs at.  A
    ``printed_three_term`` entry runs only when the caller asks for the
    published Lah variant; an ``expected_fail`` entry is healthy when its
    check finds a mismatch.  A check that raises fails, expected-fail or
    not, and its detail names the exception.
    """

    __slots__ = ("suite", "name", "check", "size", "printed_three_term", "expected_fail")

    def __init__(
        self,
        suite: str,
        name: str,
        check: Callable[[int, random.Random], str | None],
        size: _SizeRule,
        printed_three_term: bool = False,
        expected_fail: bool = False,
    ) -> None:
        self._set(suite, name, check, size, printed_three_term, expected_fail)

    @property
    def label(self) -> str:
        return f"{self.suite}: {self.name}"

    def run(self, depth: int) -> CheckResult:
        try:
            mismatch = self.check(self.size(depth), random.Random(self.label))
        except Exception as exc:
            return CheckResult(self.suite, self.name, "FAIL", f"{type(exc).__name__}: {exc}")
        if not self.expected_fail:
            return CheckResult(self.suite, self.name, "ok" if mismatch is None else "FAIL", mismatch or "")
        if mismatch is not None:
            return CheckResult(self.suite, self.name, "xfail")
        return CheckResult(
            self.suite, self.name, "FAIL", "variant unexpectedly agrees; the documented discrepancy is gone"
        )


_REGISTRY: list[Identity] = []
_Builder = Callable[[Progression, int], Triangle]
_Row = Callable[[], tuple[list[Progression], _Builder, dict[str, _Builder]]]  # (grid, builder, {name: route})
_ROUTES: dict[str, _Row] = {}  # label -> row


class _Suite:
    """A suite's name and the size rule its entries share."""

    def __init__(self, name: str, cap: int, low: int = 2, lead: int = 0):
        self.name = name
        self.size = _SizeRule(cap, low, lead)

    def identity(self, name: str, printed_three_term: bool = False, expected_fail: bool = False, **size):
        """Decorator: register a check under this suite, sized by the suite's
        rule with any ``cap``, ``low`` or ``lead`` given in ``size`` replaced."""

        def register(check):
            base = self.size
            rule = _SizeRule(**{"cap": base.cap, "low": base.low, "lead": base.lead, **size})
            _REGISTRY.append(Identity(self.name, name, check, rule, printed_three_term, expected_fail))
            return check

        return register

    def compare(self, name: str, row: _Row, law: Callable[[int], str | None] | None = None, **size) -> None:
        """Register the family comparison ``name``: ``row`` goes into ``_ROUTES``
        under the entry's label, where the check looks it up each time it runs.
        ``law``, when given, must hold first at the same size; ``size`` is as
        for ``identity``."""
        label = f"{self.name}: {name}"
        _ROUTES[label] = row
        self.identity(name, **size)(lambda size, rng: (law and law(size)) or _entrywise(label, size))


_FPS = _Suite("fps", DEFAULT_ORDER)
_S2 = _Suite("s2", 10)
_S1 = _Suite("s1", 8)
_EULERIAN = _Suite("eulerian", 10)
_BERNOULLI = _Suite("bernoulli", 12, lead=4)
_FAULHABER = _Suite("faulhaber", 8)
_LAH = _Suite("lah", 10)
_SYMFUNC = _Suite("symfunc", 9)
_SUITES = (_FPS, _S2, _S1, _EULERIAN, _BERNOULLI, _FAULHABER, _LAH, _SYMFUNC)

SUITE_NAMES = tuple(suite.name for suite in _SUITES)


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


def _series_diff(lhs: Fps, rhs: Fps) -> str:
    """First mismatching coefficient of two series, for --explain output."""
    for k in range(min(lhs.order, rhs.order) + 1):
        if lhs[k] != rhs[k]:
            return f"coefficient {k}: {lhs[k]} != {rhs[k]} (lhs: {lhs}; rhs: {rhs})"
    return f"orders differ: {lhs.order} vs {rhs.order}"


def _entries(route: Callable[[Progression, int, int], Fraction | int]) -> _Builder:
    """A per-entry route ``(prog, n, m)`` with no staged form as a triangle builder."""
    return lambda prog, size: Triangle([route(prog, n, m) for m in range(n + 1)] for n in range(size + 1))


def _pair_triangle(pair: Callable[[Progression, int], ShefferPair]) -> _Builder:
    """A Sheffer pair builder as the triangle builder of its coefficients."""
    return lambda prog, size: pair(prog, size).triangle(size)


def _poly_rows(poly: Callable[[Progression, int], Polynomial]) -> _Builder:
    """A per-row route ``(prog, n)`` that returns a polynomial as the builder,
    under the route's name, of the triangle of its coefficient rows.  Row n
    is padded with zeros to n + 1 entries; a degree above n is no row."""

    def build(prog: Progression, size: int) -> Triangle:
        # a polynomial's pair is canonical, so each padded row is too
        nums, dens = [], []
        for n in range(size + 1):
            p = poly(prog, n)
            if len(p._nums) > n + 1:
                raise DomainError(f"row {n} must have {n + 1} entries, got {len(p._nums)}")
            nums.append((*p._nums, *[0] * (n + 1 - len(p._nums))))
            dens.append(p._den)
        return _triangle(tuple(nums), None if set(dens) == {1} else tuple(dens))

    build.__name__ = poly.__name__
    return build


def _entrywise(label: str, size: int) -> str | None:
    """Build the row ``label`` now and compare ``build(prog, size)`` with each
    named route's triangle; where one differs, the first disagreeing entry
    (n, m) names (d, a), (n, m), the builder's value and each differing route
    with its value."""
    progs, build, routes = _ROUTES[label]()
    for prog in progs:
        tri = build(prog, size)
        others = {name: route(prog, size) for name, route in routes.items()}
        if all(other == tri for other in others.values()):
            continue
        for n in range(size + 1):
            for m in range(n + 1):
                want = tri.entry(n, m)
                values = {name: other.entry(n, m) for name, other in others.items()}
                wrong = ", ".join(f"{name}={value}" for name, value in values.items() if value != want)
                if wrong:
                    return f"{prog} ({n},{m}): {build.__name__}={want} but {wrong}"


def _first(mismatches: Iterable[str | None]) -> str | None:
    """The first mismatch a law reports over an entry's grid, or ``None``.
    ``mismatches`` is consumed lazily, so the grid stops, and draws nothing
    more from the entry's generator, at the first failure."""
    return next(filter(None, mismatches), None)


def _egf_diff(values: list[Fraction | int], closed_form: Fps) -> str | None:
    """``_series_diff`` of the e.g.f. of ``values`` against ``closed_form``,
    or ``None`` when they agree."""
    egf = Fps(values).ogf_to_egf()
    if egf != closed_form:
        return _series_diff(egf, closed_form)


def _lowered(
    size: int, build: _Builder, weight: Callable[[int, int], Fraction | int], operator: str
) -> str | None:
    """The first (d, a) with d <= 3 and n >= 1 where the lowering operator
    sum_{k >= 1} weight(d, k) D^k does not take the row polynomial P(n) of
    ``build(prog, size)`` to n P(n-1), as the failure of ``operator``."""
    for prog in _progressions(3):
        tri = build(prog, size)
        for n in range(1, size + 1):
            acc = Polynomial()
            deriv = tri.row_polynomial(n).derivative()
            k = 1
            while deriv:
                acc = acc + deriv * weight(prog.d, k)
                deriv = deriv.derivative()
                k += 1
            if acc != n * tri.row_polynomial(n - 1):
                return f"{prog} n={n}: {operator} fails"


# -- fps / scalar kernel -------------------------------------------------------


def _factorial_duality_violation(prog: Progression, x: Fraction, n: int) -> str | None:
    if risefac(prog, x, n) != (-1) ** n * fallfac(prog, -x, n):
        return f"duality fails at {prog} n={n} x={x}"
    scaled = Fraction(prog.d) ** n * fallfac(Progression(1, 0), (x - prog.a) / prog.d, n)
    if fallfac(prog, x, n) != scaled:
        return f"rescaling fails at {prog} n={n} x={x}"


@_FPS.identity("scalars: risefac/fallfac duality and d-rescaling")
def _factorial_duality(size, rng):
    return _first(
        _factorial_duality_violation(prog, _random_rational(rng), n) for prog in _progressions(3) for n in range(9)
    )


def _ring_law_violation(f: Fps, g: Fps, h: Fps) -> str | None:
    if (f * g) * h != f * (g * h):
        return "associativity fails"
    if f * g != g * f:
        return "commutativity fails"
    if f * (g + h) != f * g + f * h:
        return "distributivity fails"


@_FPS.identity("series: ring laws of truncated multiplication")
def _ring_laws(order, rng):
    return _first(_ring_law_violation(*(_random_series(rng, order) for _ in range(3))) for _ in range(6))


def _reversion_violation(f: Fps) -> str | None:
    g = f.reverse()
    if g.reverse() != f:
        return f"double reversion changes {f}"
    if f.compose(g) != Fps.x(f.order):
        return f"f o f^[-1] is not the identity for {f}"
    if g.compose(f) != Fps.x(f.order):
        return f"f^[-1] o f is not the identity for {f}"
    for n in range(f.order + 1):
        if reverse_coefficient_lagrange(f, n, 1) != g[n] * math.factorial(n):
            return f"Lagrange coefficient {n} disagrees with Newton reversion"


@_FPS.identity("series: reversion roundtrip, identity composition, Lagrange crosscheck")
def _reversion(order, rng):
    for _ in range(4):
        coeffs = [Fraction(0), _random_rational(rng, nonzero=True)]
        coeffs += [_random_rational(rng) for _ in range(order - 1)]
        if mismatch := _reversion_violation(Fps(coeffs)):
            return mismatch


def _exp_log_pow_violation(f: Fps, p: Fraction, q: Fraction) -> str | None:
    if f.log().exp() != f:
        return "exp(log(f)) differs from f"
    power = f.pow(p)
    if power != f.log().scale(p).exp():
        return f"pow recurrence differs from exp(p*log(f)) for exponent {p}"
    if power * f.pow(q) != f.pow(p + q):
        return f"pow additivity fails for exponents {p}, {q}"


@_FPS.identity("series: exp/log inversion and rational-power additivity")
def _exp_log_pow(order, rng):
    return _first(
        _exp_log_pow_violation(
            _random_series(rng, order, unit_constant=True), _random_rational(rng), _random_rational(rng)
        )
        for _ in range(4)
    )


def _factorial_transform_violation(f: Fps) -> str | None:
    if f.ogf_to_egf().egf_to_ogf() != f or f.egf_to_ogf().ogf_to_egf() != f:
        return "factorial transform roundtrip changes the series"


@_FPS.identity("series: factorial-scaling transform roundtrip")
def _factorial_transform(order, rng):
    return _first(_factorial_transform_violation(_random_series(rng, order)) for _ in range(4))


# -- second-kind Stirling -------------------------------------------------------


_S2.compare("four routes agree (recurrence, alternating sum, via ordinary, Sheffer)", lambda: (
    _progressions(4), st.s2_triangle, {"alternating-sum": _entries(st.s2_explicit),
    "via-ordinary": st.s2_from_ordinary_triangle, "sheffer": _pair_triangle(st.s2_pair)}))


def _s2_column_ogf_violation(prog: Progression, s2: Triangle, m: int) -> str | None:
    # product route: (d x)^m / prod_j (1 - (a+dj) x)
    ogf = Fps.one(s2.size)
    for j in range(m + 1):
        ogf = ogf * Fps([1, -prog.term(j)], order=s2.size).reciprocal()
    ogf = ogf.shifted_up(m) * Fraction(prog.d) ** m
    for n in range(s2.size + 1):
        if ogf[n] != s2.entry(n, m):
            return f"{prog} column {m}: o.g.f. coefficient {n} mismatch"


@_S2.identity("column o.g.f. (reciprocal product) reproduces the triangle")
def _s2_column_ogf(size, rng):
    for prog in _progressions(3):
        tri = st.s2_triangle(prog, size)
        for m in range(min(6, size) + 1):
            if mismatch := _s2_column_ogf_violation(prog, tri, m):
                return mismatch


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


_S2.compare("column-scaled entries are complete homogeneous symmetric functions", lambda: (
    _progressions(3), st.s2hat_triangle,
    {"complete-h": _entries(lambda prog, n, m: complete_h(Alphabet(prog, m + 1), n - m))}))


def _s2_monomial_expansion_violation(prog: Progression, n: int) -> str | None:
    expanded = Polynomial()
    for m, c in enumerate(st.s2hat_triangle(prog, n).row(n)):
        expanded = expanded + fallfac_poly(prog, m) * c
    if expanded != Polynomial.monomial(n):
        return f"{prog} degree {n}: falling-factorial expansion is not x^{n}"


@_S2.identity("monomials expand over the falling-factorial basis with scaled-row weights")
def _s2_monomial_expansion(size, rng):
    return _first(_s2_monomial_expansion_violation(prog, n) for prog in _progressions(3) for n in range(size + 1))


@_S2.identity("row polynomials obey the logarithmic lowering recurrence")
def _s2_lowering(size, rng):
    return _lowered(size, st.s2_triangle, lambda d, k: Fraction((-1) ** (k + 1), k * d), "lowering operator")


def _s2fac_diagonal(size: int) -> str | None:
    for prog in _progressions(3):
        if st.s2fac_triangle(prog, size).entry(size, size) != Fraction(prog.d) ** size * math.factorial(size):
            return f"{prog}: diagonal is not d^n n!"


_S2.compare("factorial-scaled triangle matches S2 * m! and has diagonal d^n n!", lambda: (
    _progressions(3), st.s2fac_triangle, {"s2-times-m!": lambda prog, size: Triangle(
        [c * math.factorial(m) for m, c in enumerate(row)] for row in st.s2_triangle(prog, size).rows)}),
    law=_s2fac_diagonal)


@_S2.identity("factorial-scaled row sums have the geometric-of-exponential e.g.f.")
def _s2fac_row_sum_egf(size, rng):
    for prog in _progressions(3):
        sfac = st.s2fac_triangle(prog, size)
        closed = Fps.exp_of(prog.a, size) * (Fps.one(size) - (Fps.exp_of(prog.d, size) - 1)).reciprocal()
        if diff := _egf_diff([sum(sfac.row(n), Fraction(0)) for n in range(size + 1)], closed):
            return f"{prog}: row-sum e.g.f. mismatch; {diff}"


def _s2_sequence_transform_violation(
    prog: Progression, s2_pair: ShefferPair, values: list[Fraction]
) -> str | None:
    size = len(values) - 1
    tri = s2_pair.triangle(size)
    transformed = [
        sum((tri.entry(n, m) * values[m] for m in range(n + 1)), Fraction(0)) for n in range(size + 1)
    ]
    if diff := _egf_diff(transformed, s2_pair.g * Fps(values).ogf_to_egf().compose(s2_pair.f)):
        return f"{prog}: transformed sequence e.g.f. is not g * (A o f); {diff}"


@_S2.identity("triangle transform of a sequence has e.g.f. g * (A o f)")
def _s2_sequence_transform(size, rng):
    return _first(
        _s2_sequence_transform_violation(
            prog, st.s2_pair(prog, size), [_random_rational(rng) for _ in range(size + 1)]
        )
        for prog in _progressions(2)
    )


def _s2_row_polynomial_egf_violation(
    prog: Progression, s2_pair: ShefferPair, s2: Triangle, x: Fraction
) -> str | None:
    values = [s2.row_polynomial(n).evaluate(x) for n in range(s2.size + 1)]
    if diff := _egf_diff(values, s2_pair.g * (s2_pair.f * x).exp()):
        return f"{prog} x={x}: row-polynomial e.g.f. mismatch; {diff}"


@_S2.identity("row-polynomial e.g.f. equals g(t) e^(x f(t))")
def _s2_row_polynomial_egf(size, rng):
    for prog in _progressions(2):
        pair = st.s2_pair(prog, size)
        tri = pair.triangle(size)
        for _ in range(5):
            if mismatch := _s2_row_polynomial_egf_violation(prog, pair, tri, _random_rational(rng)):
                return mismatch


def _ordinary_s2_triangle(prog: Progression, size: int) -> Triangle:
    """S2[1,0], whatever ``prog``: what every [d,a] family recovers."""
    return st.s2_triangle(Progression(1, 0), size)


_S2.compare("ordinary values recovered from any [d,a] family (a >= 1)", lambda: (
    [prog for prog in _progressions(4) if prog.a], _ordinary_s2_triangle,
    {"from-general": st.s2_ordinary_from_general_triangle}))


# -- first-kind Stirling ----------------------------------------------------------


_S1.compare("five routes agree (recurrence, symmetric fn, via ordinary, both triple sums)", lambda: (
    _progressions(3), st.s1phat_triangle, {"sigma": _entries(st.s1phat_from_sigma),
    "via-ordinary": st.s1phat_from_ordinary_triangle, "triple-sum": st.s1phat_schlomilch_triangle,
    "triple-sum-reordered": st.s1phat_schlomilch_v2_triangle}))


def _s1_group_inverse(inv_size: int) -> str | None:
    for prog in _progressions(4):
        s2 = st.s2_triangle(prog, inv_size)
        s1 = st.s1_triangle(prog, inv_size)
        if s2.multiply(s1) != identity_triangle(inv_size):
            return f"{prog}: S2 * S1 is not the identity"
        if s1.multiply(s2) != identity_triangle(inv_size):
            return f"{prog}: S1 * S2 is not the identity"


# the group inverse multiplies larger triangles than the rest of the suite
_S1.compare("group inverse: S2 and S1 triangles multiply to the identity", lambda: (
    _progressions(4), st.s1_triangle, {"sheffer": _pair_triangle(st.s1_pair)}),
    law=_s1_group_inverse, cap=DEFAULT_ORDER, lead=4)


def _s1_scaled_inverse_violation(prog: Progression, s1hat: Triangle, s1phat: Triangle) -> str | None:
    if s1hat.signed() != s1phat or s1hat.unsigned() != s1phat:
        return f"{prog}: sign pattern (-1)^(n-m) broken"


@_S1.identity("scaled inverse pair: |signed triangle| = non-negative triangle")
def _s1_scaled_inverse(size, rng):
    for prog in _progressions(3):
        s1hat = st.s1hat_pair(prog, size).triangle(size)
        s1phat = st.s1phat_triangle(prog, size)
        if st.s2hat_triangle(prog, size).inverse() != s1hat:
            return f"{prog}: scaled second-kind inverse is not the signed first-kind triangle"
        if mismatch := _s1_scaled_inverse_violation(prog, s1hat, s1phat):
            return mismatch


_S1.compare("row polynomials are the generalized rising factorials", lambda: (
    _progressions(3), st.s1phat_triangle, {"rising-factorial": _poly_rows(risefac_poly)}))
_S1.compare("signed-triangle row polynomials are the generalized falling factorials", lambda: (
    _progressions(3), _poly_rows(fallfac_poly), {"sheffer": _pair_triangle(st.s1hat_pair)}))


@_S1.identity("monic row polynomials obey the factorial lowering recurrence")
def _s1_lowering(size, rng):
    return _lowered(size, st.s1phat_triangle, lambda d, k: Fraction((-d) ** (k - 1), math.factorial(k)),
                    "factorial lowering operator")


def _s1_forward_shift_violation(prog: Progression, s1phat: Triangle) -> str | None:
    for n in range(1, s1phat.size + 1):
        stepped = Polynomial([prog.a, 1]) * s1phat.row_polynomial(n - 1).shifted(prog.d)
        if stepped != s1phat.row_polynomial(n):
            return f"{prog} n={n}: forward shift recurrence fails"


@_S1.identity("row polynomials obey P(n,x) = (x+a) P(n-1, x+d)")
def _s1_forward_shift(size, rng):
    return _first(_s1_forward_shift_violation(prog, st.s1phat_triangle(prog, size)) for prog in _progressions(3))


def _s1_falling_egf_violation(prog: Progression, x: Fraction, order: int) -> str | None:
    closed = Fps([1, prog.d], order=order).pow((x - prog.a) / prog.d)
    if diff := _egf_diff([fallfac(prog, x, m) for m in range(order + 1)], closed):
        return f"{prog} x={x}: falling-factorial e.g.f. mismatch; {diff}"


@_S1.identity("falling factorials have e.g.f. (1 + d t)^((x-a)/d)")
def _s1_falling_egf(size, rng):
    return _first(
        _s1_falling_egf_violation(prog, _random_rational(rng), size) for prog in _progressions(3) for _ in range(3)
    )


_S1.compare("column e.g.f. (1-dt)^(-a/d) (-log(1-dt)/d)^m / m! reproduces the triangle", lambda: (
    _progressions(3), st.s1phat_triangle, {"column-egf": _pair_triangle(st.s1phat_pair)}))


def _s1_row_polynomial_egf_violation(prog: Progression, s1phat: Triangle, x: Fraction) -> str | None:
    values = [s1phat.row_polynomial(n).evaluate(x) for n in range(s1phat.size + 1)]
    if diff := _egf_diff(values, Fps([1, -prog.d], order=s1phat.size).pow(-(prog.a + x) / prog.d)):
        return f"{prog} x={x}: bivariate e.g.f. mismatch; {diff}"


@_S1.identity("row-polynomial e.g.f. equals (1 - d t)^(-(a+x)/d)")
def _s1_row_polynomial_egf(size, rng):
    for prog in _progressions(3):
        tri = st.s1phat_triangle(prog, size)
        for _ in range(5):
            if mismatch := _s1_row_polynomial_egf_violation(prog, tri, _random_rational(rng)):
                return mismatch


@_S1.identity("pair algebra is a homomorphism onto triangle algebra")
def _pair_algebra(size, rng):
    pair_specs = [
        ((st.s1phat_pair, Progression(2, 1)), (st.s2hat_pair, Progression(2, 1))),
        ((st.s2_pair, Progression(3, 2)), (st.s1phat_pair, Progression(2, 1))),
    ]
    for (b1, q1), (b2, q2) in pair_specs:
        p1, p2 = b1(q1, size), b2(q2, size)
        if p1.multiply(p2).triangle(size) != p1.triangle(size).multiply(p2.triangle(size)):
            return f"pair product {b1.__name__}({q1}) * {b2.__name__}({q2}) breaks the homomorphism"
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


_EULERIAN.compare("four routes agree (recurrence, explicit, from S2fac, from ordinary)", lambda: (
    _progressions(3), eul.reu_triangle, {"explicit": _entries(eul.reu_explicit),
    "from-s2fac": eul.reu_from_s2fac_triangle, "from-ordinary": eul.reu_from_ordinary_triangle}))
_EULERIAN.compare("inverse relation recovers S2(n,m) m! from the Eulerian row", lambda: (
    _progressions(3), st.s2fac_triangle, {"from-reu": eul.s2fac_from_reu_triangle}))


def _reorder_roundtrip_violation(vec: list[Fraction | int]) -> str | None:
    n = len(vec) - 1
    if eul.reorder_a_to_b(eul.reorder_b_to_a(vec, n), n) != vec:
        return f"roundtrip fails at degree {n}"
    if eul.reorder_b_to_a(eul.reorder_a_to_b(vec, n), n) != vec:
        return f"reverse roundtrip fails at degree {n}"


@_EULERIAN.identity("reordering transform roundtrips exactly on random vectors")
def _reorder_roundtrip(size, rng):
    return _first(
        _reorder_roundtrip_violation([Fraction(rng.randint(-20, 20)) for _ in range(n + 1)]) for n in range(size + 1)
    )


@_EULERIAN.identity("power o.g.f. equals numerator polynomial over (1-x)^(n+1)", cap=8)
def _reu_power_ogf(size, rng):
    geom = Fps.geometric(1, 12)
    for prog in _progressions(3):
        tri = eul.reu_triangle(prog, size)
        for n in range(size + 1):
            powers = Fps([integer_power(prog.term(m), n) for m in range(13)])
            denom = Fps.one(12)
            for _ in range(n + 1):
                denom = denom * geom
            if powers != Fps(tri.row(n), order=12) * denom:
                return f"{prog} n={n}: power o.g.f. decomposition fails"


def _twisted_s2fac(prog: Progression, n: int) -> Polynomial:
    """sum_m S2fac(n,m) x^m (1-x)^(n-m)."""
    row = st.s2fac_triangle(prog, n).row(n)
    terms = (Polynomial.monomial(m, c) * Polynomial([1, -1]) ** (n - m) for m, c in enumerate(row))
    return sum(terms, Polynomial())


_EULERIAN.compare("numerator polynomial equals (1-x)^n-twisted factorial-scaled row", lambda: (
    _progressions(3), eul.reu_triangle, {"twisted-s2fac": _poly_rows(_twisted_s2fac)}), cap=8)


def _reu_bivariate_egf_violation(prog: Progression, reu: Triangle, x: Fraction) -> str | None:
    order = reu.size
    closed = (
        Fps.exp_of(prog.a * (1 - x), order)
        * (Fps.one(order) - Fps.exp_of(prog.d * (1 - x), order) * x).reciprocal()
        * (1 - x)
    )
    if diff := _egf_diff([reu.row_polynomial(n).evaluate(x) for n in range(order + 1)], closed):
        return f"{prog} x={x}: bivariate e.g.f. mismatch; {diff}"


@_EULERIAN.identity("bivariate e.g.f. (1-x) e^(a(1-x)t) / (1 - x e^(d(1-x)t)) matches", low=1)
def _reu_bivariate_egf(order, rng):
    for prog in _progressions(2):
        tri = eul.reu_triangle(prog, order)
        for _ in range(5):
            if mismatch := _reu_bivariate_egf_violation(prog, tri, _random_rational(rng, avoid_one=True)):
                return mismatch


@_EULERIAN.identity("row sums equal d^n n! independently of a")
def _reu_row_sums(size, rng):
    for prog in _progressions(4):
        tri = eul.reu_triangle(prog, size)
        for n in range(size + 1):
            if sum(tri.row(n), Fraction(0)) != Fraction(prog.d) ** n * math.factorial(n):
                return f"{prog} n={n}: row sum is not d^n n!"


_EULERIAN.compare("parameter flip a -> d-a reverses every row", lambda: (
    [Progression(d, a) for d in range(2, 6) for a in range(1, d)], eul.reu_triangle,
    {"flipped-reversed": lambda prog, size: Triangle(
        row[::-1] for row in eul.reu_triangle(Progression(prog.d, prog.d - prog.a), size).rows)}), cap=8)


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


def _recursive_bernoulli(n_max: int) -> list[Fraction]:
    """B(0..n_max) by the defining recursion
    B(n) = (delta_{n,0} - sum_{k<n} C(n+1,k) B(k)) / (n+1),
    independent of the tangent-number kernel."""
    values: list[Fraction] = []
    for n in range(n_max + 1):
        acc = Fraction(1 if n == 0 else 0)
        for k in range(n):
            acc -= math.comb(n + 1, k) * values[k]
        values.append(acc / (n + 1))
    return values


@_BERNOULLI.identity("recursion reproduces the canonical first thirteen numbers")
def _bernoulli_canonical(size, rng):
    recursion = _recursive_bernoulli(max(size, 12))
    if recursion[:13] != _BERNOULLI_FIRST_13:
        return f"got {recursion[:13]}"
    for n, value in enumerate(bern.bernoulli_numbers(size)):
        if value != recursion[n]:
            return f"n={n}: tangent kernel {value} != recursion {recursion[n]}"


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
        if diff := _egf_diff(bern.b_gen_numbers(prog, order), bern.b_gen_egf(prog, order)):
            return f"{prog}: number e.g.f. mismatch; {diff}"


_BERNOULLI.compare("polynomial routes (convolve numbers vs shifted powers) agree", lambda: (
    _progressions(3), _poly_rows(bern.b_gen_poly), {"shifted-powers": _poly_rows(bern.b_gen_poly_via_ordinary)}),
    cap=10)


def _b_gen_poly_egf_violation(prog: Progression, xs: Iterable[Fraction], order: int) -> str | None:
    """The first x of ``xs`` where the rows B(d,a;0..order,x) miss the e.g.f.
    d t e^(at) e^(xt) / (e^(dt) - 1).  The rows and the e.g.f. of the
    numbers are built once; ``xs`` is consumed lazily, up to that x."""
    polys = bern.b_gen_poly_rows(prog, order)
    closed = bern.b_gen_egf(prog, order)
    for x in xs:
        if diff := _egf_diff([p.evaluate(x) for p in polys], closed * Fps.exp_of(x, order)):
            return f"{prog} x={x}: bivariate polynomial e.g.f. mismatch; {diff}"


@_BERNOULLI.identity("polynomial system e.g.f. equals the Appell product with e^(xt)", cap=10)
def _b_gen_poly_egf(order, rng):
    return _first(
        _b_gen_poly_egf_violation(prog, (_random_rational(rng) for _ in range(5)), order)
        for prog in _progressions(2)
    )


def _b_d_poly_egf_violation(d: int, xs: Iterable[Fraction], order: int) -> str | None:
    """As :func:`_b_gen_poly_egf_violation`, for the rows B(d;0..order,x)."""
    polys = bern.b_d_poly_rows(d, order)
    closed = bern.b_gen_egf(Progression(d, 0), order)
    for x in xs:
        if diff := _egf_diff([p.evaluate(x) for p in polys], closed * Fps.exp_of(x, order)):
            return f"d={d} x={x}: one-parameter bivariate e.g.f. mismatch; {diff}"


@_BERNOULLI.identity("one-parameter polynomial e.g.f. equals d t e^(xt) / (e^(dt) - 1)", cap=10)
def _b_d_poly_egf(order, rng):
    return _first(
        _b_d_poly_egf_violation(d, (_random_rational(rng) for _ in range(5)), order) for d in range(1, 5)
    )


@_BERNOULLI.identity("the (-a)-convolution contracts to the a-independent numbers")
def _b_gen_contraction(n_cap, rng):
    for d in range(1, 5):
        expected = bern.b_d_numbers(d, n_cap)
        for a in range(0, 5):
            nums, den = _common_denominator(bern.b_gen_numbers(Progression(d, a), n_cap))
            powers = [(-a) ** m for m in range(n_cap + 1)]  # 0 ** 0 == 1
            for n in range(n_cap + 1):
                acc = sum(math.comb(n, m) * nums[n - m] * powers[m] for m in range(n + 1))
                if Fraction(acc, den) != expected[n]:
                    return f"d={d} a={a} n={n}: contraction does not drop a"


@_BERNOULLI.identity("one-parameter polynomials satisfy P' = n P(n-1)")
def _b_d_appell(n_cap, rng):
    for d in range(1, 5):
        rows = bern.b_d_poly_rows(d, n_cap)
        for n in range(1, n_cap + 1):
            if rows[n].derivative() != n * rows[n - 1]:
                return f"d={d} n={n}: Appell derivative property fails"


def _b_gen_parity_violation(d: int, a: int, n_cap: int) -> str | None:
    flipped = bern.b_gen_numbers(Progression(d, d - a), n_cap)
    values = bern.b_gen_numbers(Progression(d, a), n_cap)
    for n in range(n_cap + 1):
        if flipped[n] != (-1) ** n * values[n]:
            return f"d={d} a={a} n={n}: parity relation fails"


@_BERNOULLI.identity("parameter flip a -> d-a flips odd-index signs only")
def _b_gen_parity(n_cap, rng):
    return _first(_b_gen_parity_violation(d, a, n_cap) for d in range(2, 6) for a in range(1, d))


# -- Faulhaber / power sums ----------------------------------------------------------


@_FAULHABER.identity("all five formula routes equal direct summation")
def _power_sum_routes(size, rng):
    routes = [name for name in ps.METHOD_NAMES if name != "direct"]
    for prog in _progressions(4):
        for n in range(size + 1):
            evaluators = {name: ps.method_evaluator(name, prog, n) for name in routes}
            for m in range(13):
                direct = ps.ps_direct(prog, n, m)
                values = {name: at(m) for name, at in evaluators.items()}
                wrong = {k: v for k, v in values.items() if v != direct}
                if wrong:
                    return f"{prog} n={n} m={m}: direct={direct} but {wrong}"


@_FAULHABER.identity("single powers come out of both generating functions")
def _single_powers(size_n, rng):
    geom, exp = Fps.geometric(1, 10), Fps.exp_of(1, 10)
    stacked = []  # x^k / (1-x)^(k+1) for k = 0..size_n
    power = geom
    for k in range(size_n + 1):
        stacked.append(power.shifted_up(k))
        power = power * geom
    for prog in _progressions(3):
        tri = st.s2_triangle(prog, size_n)
        for n in range(size_n + 1):
            egf = exp * Fps([tri.entry(n, k) for k in range(n + 1)], order=10)
            ogf = Fps.zero(10)
            for k in range(n + 1):
                ogf = ogf + stacked[k] * (tri.entry(n, k) * math.factorial(k))
            for m in range(10 + 1):
                want = integer_power(prog.term(m), n)
                if egf.coefficient_times_factorial(m) != want:
                    return f"{prog} n={n} m={m}: powers e.g.f. fails"
                if ogf[m] != want:
                    return f"{prog} n={n} m={m}: powers o.g.f. fails"


@_FAULHABER.identity("binomial splitting over the ordinary power sums")
def _binomial_splitting(size, rng):
    base = Progression(1, 0)
    # the ordinary sums do not depend on prog; each is an integer
    ordinary = [[ps.ps_direct(base, k, m).numerator for m in range(9)] for k in range(size + 1)]
    for prog in _progressions(4):
        for n in range(size + 1):
            for m in range(0, 9):
                acc = 0
                for k in range(n + 1):
                    acc += math.comb(n, k) * prog.a ** (n - k) * prog.d**k * ordinary[k][m]
                if acc != ps.ps_direct(prog, n, m):
                    return f"{prog} n={n} m={m}: binomial splitting fails"


@_FAULHABER.identity("stacked e.g.f. coefficients equal the reordered Eulerian row")
def _stacked_coefficients(size, rng):
    for prog in _progressions(3):
        for n in range(size + 1):
            reu_row = [eul.reu_explicit(prog, n, i) for i in range(n + 1)] + [0]
            b_side = eul.reorder_a_to_b(reu_row, n + 1)
            for j in range(n + 2):
                if b_side[j] != ps.sigma_s2(prog, n, j):
                    return f"{prog} n={n} j={j}: stacked coefficients mismatch"


# -- Lah ------------------------------------------------------------------------------


_LAH.compare("product, Sheffer, four-term and three-term routes agree", lambda: (
    _progressions(3), lahmod.lah_triangle,
    {"product": lambda prog, size: st.s1phat_triangle(prog, size).multiply(st.s2hat_triangle(prog, size)),
     "sheffer": lahmod.lah_sheffer_triangle, "four-term": lahmod.lah_four_term,
     "three-term": lahmod.lah_three_term}))


@_LAH.identity("transition identities between rising and falling factorials", cap=8)
def _lah_transitions(size, rng):
    for prog in _progressions(3):
        tri = lahmod.lah_triangle(prog, size)
        inv = lahmod.lah_inverse(prog, size)
        for n in range(size + 1):
            rise = Polynomial()
            fall = Polynomial()
            for m in range(n + 1):
                rise = rise + fallfac_poly(prog, m) * tri.entry(n, m)
                fall = fall + risefac_poly(prog, m) * inv.entry(n, m)
            if rise != risefac_poly(prog, n):
                return f"{prog} n={n}: rising-in-falling transition fails"
            if fall != fallfac_poly(prog, n):
                return f"{prog} n={n}: falling-in-rising transition fails"


def _lah_inverse_product(size: int) -> str | None:
    for prog in _progressions(3):
        tri = lahmod.lah_triangle(prog, size)
        inv = lahmod.lah_inverse(prog, size)
        if tri.multiply(inv) != identity_triangle(size) or inv.multiply(tri) != identity_triangle(size):
            return f"{prog}: L * L^(-1) is not the identity"


_LAH.compare("inverse triangle: signed entries, own recurrence, identity product", lambda: (
    _progressions(3), lahmod.lah_inverse,
    {"four-term": lahmod.lah_inverse_four_term, "sheffer": _pair_triangle(lahmod.lah_inverse_pair)}),
    law=_lah_inverse_product)


@_LAH.identity("row polynomials obey the geometric lowering recurrence", cap=8)
def _lah_lowering(size, rng):
    return _lowered(size, lahmod.lah_triangle, lambda d, k: (-d) ** (k - 1), "geometric lowering operator")


@_LAH.identity("second-order raising and plain lowering recurrences (both signs)", cap=8)
def _lah_raising(size, rng):
    x = Polynomial.x()
    for prog in _progressions(3):
        # L^(-1) obeys the raising operator of L at (-d, -a)
        twins = [(lahmod.lah_triangle(prog, size), prog.d, prog.a, "second-order"),
                 (lahmod.lah_inverse(prog, size), -prog.d, -prog.a, "inverse")]
        for n in range(1, size + 1):
            for tri, d, a, kind in twins:
                p = tri.row_polynomial(n - 1)
                stepped = (
                    Polynomial([2 * a, 1]) * p
                    + Polynomial([a, 1]) * p.derivative() * (2 * d)
                    + x * p.derivative().derivative() * d**2
                )
                if stepped != tri.row_polynomial(n):
                    return f"{prog} n={n}: {kind} raising operator fails"
    return _lowered(size, lahmod.lah_inverse, lambda d, k: d ** (k - 1), "inverse lowering operator")


@_LAH.identity("a- and z-sequences match their closed forms", cap=8, low=1)
def _lah_a_z_sequences(order, rng):
    for prog in _progressions(3):
        a_seq, z_seq = lahmod.lah_pair(prog, order + 1).a_z_sequences(order)
        if a_seq != Fps([1, prog.d], order=order):
            return f"{prog}: a-sequence is not 1 + d y"
        base = Fps([1, prog.d], order=order + 1)
        closed = base * (Fps.one(order + 1) - base.pow(Fraction(-2 * prog.a, prog.d)))
        if z_seq != closed.shifted_down(1).truncated(order):
            return f"{prog}: z-sequence closed form mismatch"


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


def _symfunc_duality_violation(alphabet: Alphabet, r: int) -> str | None:
    """The first r' in 1..r where sum_k (-1)^k sigma_k h_(r'-k) is not 0.

    Every symbol is an integer, so both lists are summed by numerator.
    """
    sigma = [(-1) ** k * elementary_sigma(alphabet, k).numerator
             for k in range(min(r, alphabet.count) + 1)]
    h = [complete_h(alphabet, j).numerator for j in range(r + 1)]
    for top in range(1, r + 1):
        acc = sum(sigma[k] * h[top - k] for k in range(min(top, alphabet.count) + 1))
        if acc != 0:
            return f"{alphabet.prog} count={alphabet.count} r={top}: duality sum is {acc}"


@_SYMFUNC.identity("alternating sigma/h convolution vanishes (builder cross-guard)")
def _symfunc_duality(size, rng):
    for prog in _progressions(3):
        for count in range(1, 6):
            if mismatch := _symfunc_duality_violation(Alphabet(prog, count), 6):
                return mismatch


# the zero symbol contributes nothing: m active symbols 1..m suffice
_SYMFUNC.compare("at [1,0] the zero symbol can be dropped from the alphabet", lambda: (
    [Progression(1, 0)], st.s2_triangle,
    {"without-zero": _entries(lambda prog, n, m: complete_h(Alphabet(Progression(1, 1), m), n - m))}))


# -- driver -------------------------------------------------------------------------------


IDENTITIES: tuple[Identity, ...] = tuple(_REGISTRY)
# The depth at which every entry's cap binds; a larger depth changes nothing.
MAX_DEPTH = max(entry.size.cap - entry.size.lead for entry in IDENTITIES)


def run_suite(name: str, depth: int, include_printed_three_term: bool = False) -> list[CheckResult]:
    if name not in SUITE_NAMES:
        raise DomainError(f"unknown suite {name!r}")
    return [
        entry.run(depth)
        for entry in IDENTITIES
        if entry.suite == name and (include_printed_three_term or not entry.printed_three_term)
    ]
