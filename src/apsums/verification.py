"""Identity suites behind ``apsums verify``.

Each suite re-derives a family of quantities along independent routes and
compares them bit-exactly, reporting one line per identity.  Randomized
checks draw from a fixed-seed generator so a report is byte-for-byte
reproducible.  The ``depth`` argument scales row counts and series orders;
the (d, a) parameter grids are fixed at desk scale.
"""

from __future__ import annotations

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

__all__ = ["CheckResult", "SUITE_NAMES", "run_suite", "run_suites"]

_SEED = 20230917


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


class _Recorder:
    def __init__(self, suite: str):
        self.suite = suite
        self.results: list[CheckResult] = []

    def check(self, name: str, passed: bool, detail: str = "", expected_fail: bool = False) -> None:
        self.results.append(CheckResult(self.suite, name, passed, detail, expected_fail))

    def compare(self, name: str, mismatches: list[str]) -> None:
        """Record a pass when no mismatch strings were collected."""
        self.check(name, not mismatches, mismatches[0] if mismatches else "")


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


# -- fps / scalar kernel -------------------------------------------------------


def suite_fps(depth: int) -> list[CheckResult]:
    rec = _Recorder("fps")
    rng = random.Random(_SEED)
    order = max(2, min(depth, DEFAULT_ORDER))

    bad = []
    for _ in range(40):
        x = _random_rational(rng)
        y = _random_rational(rng, nonzero=True)
        z = (x + y) * (x - y) / y + x
        if math.gcd(z.numerator, z.denominator) != 1 or z.denominator < 1:
            bad.append(f"unnormalized value {z.numerator}/{z.denominator}")
    rec.compare("scalars: arithmetic keeps gcd(num,den)=1 and den>=1", bad)

    bad = []
    for n in range(0, depth + 1):
        for k in range(0, n + 1):
            if binomial_general(n, k) != binomial_general(n, n - k):
                bad.append(f"binomial symmetry fails at ({n},{k})")
    rec.compare("scalars: binomial symmetry C(n,k) = C(n,n-k)", bad)

    bad = []
    for prog in _progressions(3):
        for n in range(0, 9):
            x = _random_rational(rng)
            lhs = risefac(prog, x, n)
            rhs = (-1) ** n * fallfac(prog, -x, n)
            if lhs != rhs:
                bad.append(f"duality fails at {prog} n={n} x={x}")
            scaled = Fraction(prog.d) ** n * fallfac(Progression(1, 0), (x - prog.a) / prog.d, n)
            if fallfac(prog, x, n) != scaled:
                bad.append(f"rescaling fails at {prog} n={n} x={x}")
    rec.compare("scalars: risefac/fallfac duality and d-rescaling", bad)

    bad = []
    for _ in range(6):
        f = _random_series(rng, order)
        g = _random_series(rng, order)
        h = _random_series(rng, order)
        if (f * g) * h != f * (g * h):
            bad.append("associativity fails")
        if f * g != g * f:
            bad.append("commutativity fails")
        if f * (g + h) != f * g + f * h:
            bad.append("distributivity fails")
    rec.compare("series: ring laws of truncated multiplication", bad)

    bad = []
    for _ in range(4):
        coeffs = [Fraction(0), _random_rational(rng, nonzero=True)]
        coeffs += [_random_rational(rng) for _ in range(order - 1)]
        f = Fps(coeffs)
        g = f.reverse()
        if g.reverse() != f:
            bad.append(f"double reversion changes {f}")
        if f.compose(g) != Fps.x(order):
            bad.append(f"f o f^[-1] is not the identity for {f}")
        for n in range(order + 1):
            direct = reverse_coefficient_lagrange(f, n, 1)
            if direct != g[n] * math.factorial(n):
                bad.append(f"Lagrange coefficient {n} disagrees with Newton reversion")
                break
    rec.compare("series: reversion roundtrip, identity composition, Lagrange crosscheck", bad)

    bad = []
    for _ in range(4):
        f = _random_series(rng, order, unit_constant=True)
        if f.log().exp() != f:
            bad.append("exp(log(f)) differs from f")
        p = _random_rational(rng)
        q = _random_rational(rng)
        if f.pow(p) * f.pow(q) != f.pow(p + q):
            bad.append(f"pow additivity fails for exponents {p}, {q}")
    rec.compare("series: exp/log inversion and rational-power additivity", bad)

    bad = []
    for _ in range(4):
        f = _random_series(rng, order)
        if f.ogf_to_egf().egf_to_ogf() != f or f.egf_to_ogf().ogf_to_egf() != f:
            bad.append("factorial transform roundtrip changes the series")
    rec.compare("series: factorial-scaling transform roundtrip", bad)

    return rec.results


# -- second-kind Stirling -------------------------------------------------------


def suite_s2(depth: int) -> list[CheckResult]:
    rec = _Recorder("s2")
    rng = random.Random(_SEED + 2)
    size = max(2, min(depth, 10))

    bad = []
    for prog in _progressions(4):
        tri = st.s2_triangle(prog, size)
        pair_tri = st.s2_pair(prog, size).triangle(size)
        if tri != pair_tri:
            bad.append(f"{prog}: recurrence and Sheffer coefficient extraction differ")
            continue
        for n in range(size + 1):
            for m in range(n + 1):
                e = st.s2_explicit(prog, n, m)
                o = st.s2_from_ordinary(prog, n, m)
                if not (tri.entry(n, m) == e == o):
                    bad.append(
                        f"{prog} ({n},{m}): recurrence={tri.entry(n, m)} "
                        f"alternating-sum={e} via-ordinary={o}"
                    )
    rec.compare("four routes agree (recurrence, alternating sum, via ordinary, Sheffer)", bad)

    bad = []
    m_cap = min(6, size)
    for prog in _progressions(3):
        tri = st.s2_triangle(prog, size)
        for m in range(m_cap + 1):
            # product route: (d x)^m / prod_j (1 - (a+dj) x)
            ogf = Fps.one(size)
            for j in range(m + 1):
                ogf = ogf * Fps([1, -prog.term(j)], order=size).reciprocal()
            ogf = ogf.shifted_up(m) * Fraction(prog.d) ** m
            for n in range(size + 1):
                if ogf[n] != tri.entry(n, m):
                    bad.append(f"{prog} column {m}: o.g.f. coefficient {n} mismatch")
                    break
    rec.compare("column o.g.f. (reciprocal product) reproduces the triangle", bad)

    bad = []
    for prog in _progressions(3):
        tri = st.s2_triangle(prog, size)
        for m in range(m_cap + 1):
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
                    bad.append(f"{prog} column {m}: partial-fraction value at n={n} mismatch")
                    break
    rec.compare("column o.g.f. partial fractions (geometric sums) agree", bad)

    bad = []
    for prog in _progressions(3):
        s2h = st.s2hat_triangle(prog, size)
        for n in range(size + 1):
            for m in range(n + 1):
                if s2h.entry(n, m) != complete_h(Alphabet(prog, m + 1), n - m):
                    bad.append(f"{prog} ({n},{m}): scaled entry is not complete homogeneous")
    rec.compare("column-scaled entries are complete homogeneous symmetric functions", bad)

    bad = []
    for prog in _progressions(3):
        for n in range(size + 1):
            coeffs = st.monomial_in_fallfac(prog, n)
            expanded = Polynomial()
            for m, c in enumerate(coeffs):
                expanded = expanded + fallfac_poly(prog, m) * c
            if expanded != Polynomial.monomial(n):
                bad.append(f"{prog} degree {n}: falling-factorial expansion is not x^{n}")
    rec.compare("monomials expand over the falling-factorial basis with scaled-row weights", bad)

    bad = []
    for prog in _progressions(3):
        tri = st.s2_triangle(prog, size)
        d, a = prog.d, prog.a
        for n in range(1, size + 1):
            prev = tri.row_polynomial(n - 1)
            stepped = a * prev + d * Polynomial.x() * prev + d * Polynomial.x() * prev.derivative()
            if stepped != tri.row_polynomial(n):
                bad.append(f"{prog} n={n}: operator recurrence fails")
    rec.compare("row polynomials obey the (a + d x + d x D) step", bad)

    bad = []
    for prog in _progressions(3):
        tri = st.s2_triangle(prog, size)
        for n in range(1, size + 1):
            p = tri.row_polynomial(n)
            acc = Polynomial()
            deriv = p
            for k in range(1, n + 1):
                deriv = deriv.derivative()
                sign = 1 if (k + 1) % 2 == 0 else -1
                acc = acc + deriv * Fraction(sign, k)
                if not deriv:
                    break
            if acc * Fraction(1, prog.d) != n * tri.row_polynomial(n - 1):
                bad.append(f"{prog} n={n}: lowering operator fails")
    rec.compare("row polynomials obey the logarithmic lowering recurrence", bad)

    bad = []
    for prog in _progressions(3):
        sfac = st.s2fac_triangle(prog, size)
        s2 = st.s2_triangle(prog, size)
        for n in range(size + 1):
            for m in range(n + 1):
                if sfac.entry(n, m) != s2.entry(n, m) * math.factorial(m):
                    bad.append(f"{prog} ({n},{m}): factorial-scaled recurrence mismatch")
        if sfac.entry(size, size) != Fraction(prog.d) ** size * math.factorial(size):
            bad.append(f"{prog}: diagonal is not d^n n!")
    rec.compare("factorial-scaled triangle matches S2 * m! and has diagonal d^n n!", bad)

    bad = []
    for prog in _progressions(3):
        sfac = st.s2fac_triangle(prog, size)
        row_sums = [sum(sfac.row(n), Fraction(0)) for n in range(size + 1)]
        lhs = _egf_from_values(row_sums, size)
        rhs = Fps.exp_of(prog.a, size) * (
            Fps.one(size) - (Fps.exp_of(prog.d, size) - 1)
        ).reciprocal()
        if lhs != rhs:
            bad.append(f"{prog}: row-sum e.g.f. mismatch; {_series_diff(lhs, rhs)}")
    rec.compare("factorial-scaled row sums have the geometric-of-exponential e.g.f.", bad)

    bad = []
    for prog in _progressions(3):
        tri = st.s2_triangle(prog, size)
        for m in range(min(4, size) + 1):
            egf = Fps.exp_of(prog.a, size)
            for j in range(1, m + 1):
                egf = egf * (Fps.exp_of(prog.d, size) - 1) / j
            for n in range(m, size + 1):
                if egf.coefficient_times_factorial(n) != tri.entry(n, m):
                    bad.append(f"{prog} column {m}: e.g.f. coefficient {n} mismatch")
                    break
    rec.compare("column e.g.f. e^(at) (e^(dt)-1)^m / m! reproduces the triangle", bad)

    bad = []
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
            bad.append(
                f"{prog}: transformed sequence e.g.f. is not g * (A o f); "
                f"{_series_diff(lhs, rhs)}"
            )
    rec.compare("triangle transform of a sequence has e.g.f. g * (A o f)", bad)

    bad = []
    for prog in _progressions(2):
        pair = st.s2_pair(prog, size)
        tri = pair.triangle(size)
        for _ in range(5):
            x = _random_rational(rng)
            rows = [tri.row_polynomial(n).evaluate(x) for n in range(size + 1)]
            lhs = _egf_from_values(rows, size)
            rhs = pair.g * (pair.f * x).exp()
            if lhs != rhs:
                bad.append(f"{prog} x={x}: row-polynomial e.g.f. mismatch; {_series_diff(lhs, rhs)}")
    rec.compare("row-polynomial e.g.f. equals g(t) e^(x f(t))", bad)

    bad = []
    for prog in _progressions(4):
        if prog.a == 0:
            continue
        ordinary = st.s2_triangle(Progression(1, 0), size)
        for n in range(size + 1):
            for m in range(n + 1):
                if st.s2_ordinary_from_general(prog, n, m) != ordinary.entry(n, m):
                    bad.append(f"{prog} ({n},{m}): ordinary recovery fails")
    rec.compare("ordinary values recovered from any [d,a] family (a >= 1)", bad)

    return rec.results


# -- first-kind Stirling ----------------------------------------------------------


def suite_s1(depth: int) -> list[CheckResult]:
    rec = _Recorder("s1")
    rng = random.Random(_SEED + 3)
    size = max(2, min(depth, 8))
    inv_size = max(2, min(depth + 4, DEFAULT_ORDER))

    bad = []
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
                    bad.append(f"{prog} ({n},{m}): recurrence={tri.entry(n, m)} but {wrong}")
    rec.compare("five routes agree (recurrence, symmetric fn, via ordinary, both triple sums)", bad)

    bad = []
    ordinary = st.s1phat_triangle(Progression(1, 0), size)
    for n in range(size + 1):
        for m in range(n + 1):
            if st.s1p_ordinary_schlomilch(n, m) != ordinary.entry(n, m):
                bad.append(f"({n},{m}): classical double-binomial sum mismatch")
    rec.compare("classical first-kind values from the double-binomial second-kind sum", bad)

    bad = []
    for prog in _progressions(4):
        s2 = st.s2_triangle(prog, inv_size)
        s1 = st.s1_triangle(prog, inv_size)
        if s2.multiply(s1) != identity_triangle(inv_size):
            bad.append(f"{prog}: S2 * S1 is not the identity")
        if s1.multiply(s2) != identity_triangle(inv_size):
            bad.append(f"{prog}: S1 * S2 is not the identity")
    rec.compare("group inverse: S2 and S1 triangles multiply to the identity", bad)

    bad = []
    for prog in _progressions(3):
        s1hat = st.s1hat_pair(prog, size).triangle(size)
        s1phat = st.s1phat_triangle(prog, size)
        if st.s2hat_triangle(prog, size).inverse() != s1hat:
            bad.append(f"{prog}: scaled second-kind inverse is not the signed first-kind triangle")
        if s1hat.signed() != s1phat or s1hat.unsigned() != s1phat:
            bad.append(f"{prog}: sign pattern (-1)^(n-m) broken")
    rec.compare("scaled inverse pair: |signed triangle| = non-negative triangle", bad)

    bad = []
    for prog in _progressions(3):
        tri = st.s1phat_triangle(prog, size)
        for n in range(size + 1):
            if tri.row_polynomial(n) != risefac_poly(prog, n):
                bad.append(f"{prog} n={n}: row polynomial is not the rising factorial")
    rec.compare("row polynomials are the generalized rising factorials", bad)

    bad = []
    for prog in _progressions(3):
        s1hat = st.s1hat_pair(prog, size).triangle(size)
        for n in range(size + 1):
            if s1hat.row_polynomial(n) != fallfac_poly(prog, n):
                bad.append(f"{prog} n={n}: signed row polynomial is not the falling factorial")
    rec.compare("signed-triangle row polynomials are the generalized falling factorials", bad)

    bad = []
    for prog in _progressions(3):
        tri = st.s1phat_triangle(prog, size)
        d = prog.d
        for n in range(1, size + 1):
            p = tri.row_polynomial(n)
            acc = Polynomial()
            deriv = p
            for k in range(1, n + 1):
                deriv = deriv.derivative()
                sign = 1 if (k - 1) % 2 == 0 else -1
                acc = acc + deriv * Fraction(sign * d ** (k - 1), math.factorial(k))
                if not deriv:
                    break
            if acc != n * tri.row_polynomial(n - 1):
                bad.append(f"{prog} n={n}: factorial lowering operator fails")
    rec.compare("monic row polynomials obey the factorial lowering recurrence", bad)

    bad = []
    for prog in _progressions(3):
        tri = st.s1phat_triangle(prog, size)
        for n in range(1, size + 1):
            shifted = tri.row_polynomial(n - 1).shifted(prog.d)
            stepped = Polynomial([prog.a, 1]) * shifted
            if stepped != tri.row_polynomial(n):
                bad.append(f"{prog} n={n}: forward shift recurrence fails")
    rec.compare("row polynomials obey P(n,x) = (x+a) P(n-1, x+d)", bad)

    bad = []
    for prog in _progressions(3):
        for _ in range(3):
            x = _random_rational(rng)
            values = [fallfac(prog, x, m) for m in range(size + 1)]
            lhs = _egf_from_values(values, size)
            rhs = Fps([1, prog.d], order=size).pow((x - prog.a) / prog.d)
            if lhs != rhs:
                bad.append(f"{prog} x={x}: falling-factorial e.g.f. mismatch; {_series_diff(lhs, rhs)}")
    rec.compare("falling factorials have e.g.f. (1 + d t)^((x-a)/d)", bad)

    bad = []
    for prog in _progressions(3):
        tri = st.s1phat_triangle(prog, size)
        base = Fps([1, -prog.d], order=size)
        g = base.pow(Fraction(-prog.a, prog.d))
        f = -(base.log()) / prog.d
        column = g
        for m in range(min(4, size) + 1):
            if m > 0:
                column = column * f / m
            for n in range(m, size + 1):
                if column.coefficient_times_factorial(n) != tri.entry(n, m):
                    bad.append(f"{prog} column {m}: e.g.f. coefficient {n} mismatch")
                    break
    rec.compare("column e.g.f. (1-dt)^(-a/d) (-log(1-dt)/d)^m / m! reproduces the triangle", bad)

    bad = []
    for prog in _progressions(3):
        tri = st.s1phat_triangle(prog, size)
        for _ in range(5):
            x = _random_rational(rng)
            rows = [tri.row_polynomial(n).evaluate(x) for n in range(size + 1)]
            lhs = _egf_from_values(rows, size)
            rhs = Fps([1, -prog.d], order=size).pow(-(prog.a + x) / prog.d)
            if lhs != rhs:
                bad.append(f"{prog} x={x}: bivariate e.g.f. mismatch; {_series_diff(lhs, rhs)}")
    rec.compare("row-polynomial e.g.f. equals (1 - d t)^(-(a+x)/d)", bad)

    bad = []
    pair_specs = [
        (st.s1phat_pair(Progression(2, 1), size), st.s2hat_pair(Progression(2, 1), size)),
        (st.s2_pair(Progression(3, 2), size), st.s1phat_pair(Progression(2, 1), size)),
    ]
    for p1, p2 in pair_specs:
        product = p1.multiply(p2)
        if product.triangle(size) != p1.triangle(size).multiply(p2.triangle(size)):
            bad.append(f"pair product {p1.label} * {p2.label} breaks the homomorphism")
    for prog in _progressions(2):
        pair = st.s2_pair(prog, size)
        inv = pair.inverse()
        if inv.triangle(size) != pair.triangle(size).inverse():
            bad.append(f"{prog}: pair inverse does not match matrix inverse")
        double = inv.inverse()
        if double.g != pair.g.truncated(double.g.order) or double.f != pair.f.truncated(double.f.order):
            bad.append(f"{prog}: double inverse is not an involution")
        if pair.multiply(inv).triangle(size) != identity_triangle(size):
            bad.append(f"{prog}: pair times inverse is not the identity pair")
    rec.compare("pair algebra is a homomorphism onto triangle algebra", bad)

    return rec.results


# -- Eulerian ---------------------------------------------------------------------


def suite_eulerian(depth: int) -> list[CheckResult]:
    rec = _Recorder("eulerian")
    rng = random.Random(_SEED + 4)
    size = max(2, min(depth, 10))
    poly_size = min(size, 8)

    bad = []
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
                    bad.append(f"{prog} ({n},{m}): recurrence={tri.entry(n, m)} but {wrong}")
    rec.compare("four routes agree (recurrence, explicit, from S2fac, from ordinary)", bad)

    bad = []
    for prog in _progressions(3):
        s2 = st.s2_triangle(prog, size)
        for n in range(size + 1):
            for m in range(n + 1):
                expect = s2.entry(n, m) * math.factorial(m)
                if eul.s2fac_from_reu(prog, n, m) != expect:
                    bad.append(f"{prog} ({n},{m}): inverse relation fails")
    rec.compare("inverse relation recovers S2(n,m) m! from the Eulerian row", bad)

    bad = []
    for n in range(0, size + 1):
        vec = [Fraction(rng.randint(-20, 20)) for _ in range(n + 1)]
        a_side = eul.reorder_b_to_a(vec, n)
        back = eul.reorder_a_to_b(a_side, n)
        if back != vec:
            bad.append(f"roundtrip fails at degree {n}")
        if eul.reorder_b_to_a(eul.reorder_a_to_b(vec, n), n) != vec:
            bad.append(f"reverse roundtrip fails at degree {n}")
    rec.compare("reordering transform roundtrips exactly on random vectors", bad)

    bad = []
    for prog in _progressions(3):
        tri = eul.reu_triangle(prog, poly_size)
        geom = Fps.geometric(1, 12)
        for n in range(poly_size + 1):
            powers = Fps([integer_power(prog.term(m), n) for m in range(13)])
            denom = Fps.one(12)
            for _ in range(n + 1):
                denom = denom * geom
            rhs = Fps(tri.row(n), order=12) * denom
            if powers != rhs:
                bad.append(f"{prog} n={n}: power o.g.f. decomposition fails")
    rec.compare("power o.g.f. equals numerator polynomial over (1-x)^(n+1)", bad)

    bad = []
    for prog in _progressions(3):
        tri = eul.reu_triangle(prog, poly_size)
        sfac = st.s2fac_triangle(prog, poly_size)
        one_minus_x = Polynomial([1, -1])
        for n in range(poly_size + 1):
            acc = Polynomial()
            for m in range(n + 1):
                acc = acc + Polynomial.monomial(m) * one_minus_x ** (n - m) * sfac.entry(n, m)
            if acc != tri.row_polynomial(n):
                bad.append(f"{prog} n={n}: cleared-denominator polynomial identity fails")
    rec.compare("numerator polynomial equals (1-x)^n-twisted factorial-scaled row", bad)

    bad = []
    order = min(depth, 10)
    for prog in _progressions(2):
        tri = eul.reu_triangle(prog, order)
        for _ in range(5):
            x = _random_rational(rng, avoid_one=True)
            rows = [tri.row_polynomial(n).evaluate(x) for n in range(order + 1)]
            lhs = _egf_from_values(rows, order)
            d_rate = prog.d * (1 - x)
            a_rate = prog.a * (1 - x)
            rhs = (
                Fps.exp_of(a_rate, order)
                * (Fps.one(order) - Fps.exp_of(d_rate, order) * x).reciprocal()
                * (1 - x)
            )
            if lhs != rhs:
                bad.append(f"{prog} x={x}: bivariate e.g.f. mismatch; {_series_diff(lhs, rhs)}")
    rec.compare("bivariate e.g.f. (1-x) e^(a(1-x)t) / (1 - x e^(d(1-x)t)) matches", bad)

    bad = []
    for prog in _progressions(4):
        tri = eul.reu_triangle(prog, size)
        for n in range(size + 1):
            if sum(tri.row(n), Fraction(0)) != Fraction(prog.d) ** n * math.factorial(n):
                bad.append(f"{prog} n={n}: row sum is not d^n n!")
    rec.compare("row sums equal d^n n! independently of a", bad)

    bad = []
    for d in range(2, 6):
        for a in range(1, d):
            t1 = eul.reu_triangle(Progression(d, d - a), min(size, 8))
            t2 = eul.reu_triangle(Progression(d, a), min(size, 8))
            for n in range(min(size, 8) + 1):
                if list(t1.row(n)) != list(reversed(t2.row(n))):
                    bad.append(f"d={d} a={a} n={n}: row reversal symmetry fails")
    rec.compare("parameter flip a -> d-a reverses every row", bad)

    bad = []
    for prog in _progressions(3):
        for n in range(size + 1):
            # the coefficient beyond the triangle must vanish: the numerator
            # polynomial of the partial-sum o.g.f. has degree n, not n+1.
            acc = Fraction(0)
            for p in range(n + 2):
                sign = -1 if (n + 1 - p) % 2 else 1
                acc += sign * math.comb(n + 1, n + 1 - p) * integer_power(prog.term(p), n)
            if acc != 0:
                bad.append(f"{prog} n={n}: degree bound violated")
    rec.compare("the extended explicit sum vanishes just past the diagonal", bad)

    bad = []
    for prog in _progressions(4):
        tri = eul.reu_triangle(prog, size)
        for n in range(size + 1):
            if tri.entry(n, 0) != integer_power(prog.a, n):
                bad.append(f"{prog} n={n}: column 0 is not a^n")
    rec.compare("column zero carries the pure powers a^n", bad)

    return rec.results


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


def suite_bernoulli(depth: int) -> list[CheckResult]:
    rec = _Recorder("bernoulli")
    rng = random.Random(_SEED + 5)
    n_cap = max(4, min(depth + 4, 12))
    order = max(4, min(depth + 4, 12))

    values = bern.bernoulli_numbers(12)
    rec.check(
        "recursion reproduces the canonical first thirteen numbers",
        values == _BERNOULLI_FIRST_13,
        "" if values == _BERNOULLI_FIRST_13 else f"got {values}",
    )

    bad = []
    for prog in _progressions(4):
        binomial_route = bern.b_gen_numbers(prog, n_cap)
        for n in range(n_cap + 1):
            lhs = bern.b_gen(prog, n)
            rhs = binomial_route[n]
            if lhs != rhs:
                bad.append(f"{prog} n={n}: alternating-sum route {lhs} != binomial route {rhs}")
    rec.compare("two-parameter numbers agree along both routes", bad)

    bad = []
    for prog in _progressions(4):
        lhs = _egf_from_values(bern.b_gen_numbers(prog, order), order)
        rhs = bern.b_gen_egf(prog, order)
        if lhs != rhs:
            bad.append(f"{prog}: number e.g.f. mismatch; {_series_diff(lhs, rhs)}")
    rec.compare("number e.g.f. equals d t e^(at) / (e^(dt) - 1)", bad)

    bad = []
    for prog in _progressions(3):
        for n in range(min(n_cap, 10) + 1):
            if bern.b_gen_poly(prog, n) != bern.b_gen_poly_via_ordinary(prog, n):
                bad.append(f"{prog} n={n}: polynomial routes disagree")
    rec.compare("polynomial routes (convolve numbers vs shifted powers) agree", bad)

    bad = []
    for prog in _progressions(2):
        for _ in range(5):
            x = _random_rational(rng)
            rows = [bern.b_gen_poly(prog, n).evaluate(x) for n in range(min(order, 10) + 1)]
            lhs = _egf_from_values(rows, min(order, 10))
            rhs = bern.b_gen_egf(prog, min(order, 10)) * Fps.exp_of(x, min(order, 10))
            if lhs != rhs:
                bad.append(f"{prog} x={x}: bivariate polynomial e.g.f. mismatch")
    rec.compare("polynomial system e.g.f. equals the Appell product with e^(xt)", bad)

    bad = []
    for d in range(1, 5):
        for _ in range(5):
            x = _random_rational(rng)
            rows = [bern.b_d_poly(d, n).evaluate(x) for n in range(min(order, 10) + 1)]
            lhs = _egf_from_values(rows, min(order, 10))
            rhs = bern.b_gen_egf(Progression(d, 0), min(order, 10)) * Fps.exp_of(x, min(order, 10))
            if lhs != rhs:
                bad.append(f"d={d} x={x}: one-parameter bivariate e.g.f. mismatch")
    rec.compare("one-parameter polynomial e.g.f. equals d t e^(xt) / (e^(dt) - 1)", bad)

    bad = []
    for d in range(1, 5):
        expected = bern.b_d_numbers(d, n_cap)
        for a in range(0, 5):
            values = bern.b_gen_numbers(Progression(d, a), n_cap)
            for n in range(n_cap + 1):
                acc = Fraction(0)
                for m in range(n + 1):
                    acc += (
                        math.comb(n, m)
                        * values[n - m]
                        * integer_power(Fraction(-a), m)
                    )
                if acc != expected[n]:
                    bad.append(f"d={d} a={a} n={n}: contraction does not drop a")
    rec.compare("the (-a)-convolution contracts to the a-independent numbers", bad)

    bad = []
    for d in range(1, 5):
        for n in range(1, n_cap + 1):
            if bern.b_d_poly(d, n).derivative() != n * bern.b_d_poly(d, n - 1):
                bad.append(f"d={d} n={n}: Appell derivative property fails")
    rec.compare("one-parameter polynomials satisfy P' = n P(n-1)", bad)

    bad = []
    for d in range(2, 6):
        for a in range(1, d):
            flipped = bern.b_gen_numbers(Progression(d, d - a), n_cap)
            values = bern.b_gen_numbers(Progression(d, a), n_cap)
            for n in range(n_cap + 1):
                lhs = flipped[n]
                rhs = (-1) ** n * values[n]
                if lhs != rhs:
                    bad.append(f"d={d} a={a} n={n}: parity relation fails")
    rec.compare("parameter flip a -> d-a flips odd-index signs only", bad)

    bad = []
    numbers = bern.bernoulli_numbers(n_cap)
    for n in range(n_cap + 1):
        if bern.b_gen(Progression(1, 0), n) != numbers[n]:
            bad.append(f"n={n}: [1,0] reduction fails for numbers")
    for n in range(min(n_cap, 8) + 1):
        if bern.b_gen_poly(Progression(1, 0), n) != bern.bernoulli_poly(n):
            bad.append(f"n={n}: [1,0] reduction fails for polynomials")
    rec.compare("[1,0] reduces to the ordinary numbers and polynomials", bad)

    return rec.results


# -- Faulhaber / power sums ----------------------------------------------------------


def suite_faulhaber(depth: int) -> list[CheckResult]:
    rec = _Recorder("faulhaber")
    size_n = max(2, min(depth, 8))
    m_cap = 12

    bad = []
    for prog in _progressions(4):
        for n in range(size_n + 1):
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
                    bad.append(f"{prog} n={n} m={m}: direct={direct_row[m]} but {wrong}")
    rec.compare("all five formula routes equal direct summation", bad)

    spot = ps.ps_faulhaber(Progression(2, 1), 2, 2)
    rec.check(
        "spot value: odd squares 1+9+25 through the generalized formula",
        spot == 35,
        "" if spot == 35 else f"got {spot}",
    )

    bad = []
    for prog in _progressions(3):
        tri = st.s2_triangle(prog, size_n)
        reu = eul.reu_triangle(prog, size_n)
        for n in range(size_n + 1):
            row = [tri.entry(n, k) * math.factorial(k) for k in range(n + 1)]
            egf = Fps.exp_of(1, 10) * Fps(
                [tri.entry(n, k) for k in range(n + 1)], order=10
            )
            geom = Fps.geometric(1, 10)
            ogf = Fps.zero(10)
            power = geom
            for k in range(n + 1):
                ogf = ogf + power.shifted_up(k) * row[k]
                power = power * geom
            # sum_k rEu(n,k) x^k / (1-x)^(n+1)
            eulerian = Fps(reu.row(n), order=10)
            for _ in range(n + 1):
                eulerian = eulerian * geom
            for m in range(10 + 1):
                want = integer_power(prog.term(m), n)
                if egf.coefficient_times_factorial(m) != want:
                    bad.append(f"{prog} n={n} m={m}: powers e.g.f. fails")
                    break
                if ogf[m] != want:
                    bad.append(f"{prog} n={n} m={m}: powers o.g.f. fails")
                    break
                if eulerian[m] != want:
                    bad.append(f"{prog} n={n} m={m}: powers Eulerian o.g.f. fails")
                    break
    rec.compare("single powers come out of both generating functions", bad)

    bad = []
    base = Progression(1, 0)
    for prog in _progressions(4):
        for n in range(size_n + 1):
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
                    bad.append(f"{prog} n={n} m={m}: binomial splitting fails")
    rec.compare("binomial splitting over the ordinary power sums", bad)

    bad = []
    for prog in _progressions(3):
        for n in range(size_n + 1):
            reu_row = [eul.reu_explicit(prog, n, i) for i in range(n + 1)] + [Fraction(0)]
            b_side = eul.reorder_a_to_b(reu_row, n + 1)
            for j in range(n + 2):
                if b_side[j] != ps.sigma_s2(prog, n, j):
                    bad.append(f"{prog} n={n} j={j}: stacked coefficients mismatch")
    rec.compare("stacked e.g.f. coefficients equal the reordered Eulerian row", bad)

    return rec.results


# -- Lah ------------------------------------------------------------------------------


def suite_lah(depth: int, include_printed_three_term: bool = False) -> list[CheckResult]:
    rec = _Recorder("lah")
    size = max(2, min(depth, 10))
    poly_size = min(size, 8)

    bad = []
    for prog in _progressions(3):
        tri = lahmod.lah_triangle(prog, size)
        routes = {
            "sheffer": lahmod.lah_sheffer_triangle(prog, size),
            "four-term": lahmod.lah_four_term(prog, size),
            "three-term": lahmod.lah_three_term(prog, size),
        }
        for label, other in routes.items():
            if other != tri:
                bad.append(f"{prog}: {label} route disagrees with the triangle product")
    rec.compare("product, Sheffer, four-term and three-term routes agree", bad)

    bad = []
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
                bad.append(f"{prog} n={n}: rising-in-falling transition fails")
            if fall != fallfac_poly(prog, n):
                bad.append(f"{prog} n={n}: falling-in-rising transition fails")
    rec.compare("transition identities between rising and falling factorials", bad)

    bad = []
    for prog in _progressions(3):
        tri = lahmod.lah_triangle(prog, size)
        inv = lahmod.lah_inverse(prog, size)
        if tri.multiply(inv) != identity_triangle(size) or inv.multiply(tri) != identity_triangle(size):
            bad.append(f"{prog}: L * L^(-1) is not the identity")
        for n in range(size + 1):
            for m in range(n + 1):
                want = tri.entry(n, m) * ((-1) ** (n - m))
                if inv.entry(n, m) != want:
                    bad.append(f"{prog} ({n},{m}): inverse is not the signed triangle")
        if lahmod.lah_inverse_four_term(prog, size) != inv:
            bad.append(f"{prog}: sign-flipped four-term recurrence fails for the inverse")
        if lahmod.lah_inverse_pair(prog, size).triangle(size) != inv:
            bad.append(f"{prog}: inverse Sheffer pair disagrees with signing")
    rec.compare("inverse triangle: signed entries, own recurrence, identity product", bad)

    bad = []
    for prog in _progressions(3):
        tri = lahmod.lah_triangle(prog, poly_size)
        d = prog.d
        for n in range(1, poly_size + 1):
            p = tri.row_polynomial(n)
            acc = Polynomial()
            deriv = p
            for k in range(0, n):
                deriv = deriv.derivative()
                sign = 1 if k % 2 == 0 else -1
                acc = acc + deriv * (sign * d**k)
                if not deriv:
                    break
            if acc != n * tri.row_polynomial(n - 1):
                bad.append(f"{prog} n={n}: geometric lowering operator fails")
    rec.compare("row polynomials obey the geometric lowering recurrence", bad)

    bad = []
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
                bad.append(f"{prog} n={n}: second-order raising operator fails")
            q = inv.row_polynomial(n - 1)
            stepped_inv = (
                Polynomial([-2 * a, 1]) * q
                - Polynomial([-a, 1]) * q.derivative() * (2 * d)
                + x * q.derivative().derivative() * d**2
            )
            if stepped_inv != inv.row_polynomial(n):
                bad.append(f"{prog} n={n}: inverse raising operator fails")
            acc = Polynomial()
            deriv = inv.row_polynomial(n)
            for k in range(0, n):
                deriv = deriv.derivative()
                acc = acc + deriv * d**k
                if not deriv:
                    break
            if acc != n * inv.row_polynomial(n - 1):
                bad.append(f"{prog} n={n}: inverse lowering operator fails")
    rec.compare("second-order raising and plain lowering recurrences (both signs)", bad)

    bad = []
    order = min(depth, 8)
    for prog in _progressions(3):
        a_seq, z_seq = lahmod.lah_pair(prog, order + 1).a_z_sequences(order)
        if a_seq != Fps([1, prog.d], order=order):
            bad.append(f"{prog}: a-sequence is not 1 + d y")
        base = Fps([1, prog.d], order=order + 1)
        closed = base * (Fps.one(order + 1) - base.pow(Fraction(-2 * prog.a, prog.d)))
        if z_seq != closed.shifted_down(1).truncated(order):
            bad.append(f"{prog}: z-sequence closed form mismatch")
    rec.compare("a- and z-sequences match their closed forms", bad)

    bad = []
    for prog in _progressions(3):
        col = lahmod.lah_column0(prog, size)
        for n in range(size + 1):
            product = Fraction(1)
            for j in range(n):
                product *= 2 * prog.a + j * prog.d
            if col[n] != product:
                bad.append(f"{prog} n={n}: column 0 is not prod(2a + jd)")
    rec.compare("column zero equals the doubled-offset rising product", bad)

    if include_printed_three_term:
        for prog in _progressions(3):
            printed = lahmod.lah_three_term(prog, size, printed=True)
            reference = lahmod.lah_triangle(prog, size)
            agrees = printed == reference
            name = f"published three-term variant reproduces the triangle at d={prog.d} a={prog.a}"
            if prog.d == 1:
                rec.check(name, agrees, "" if agrees else "variant unexpectedly diverges at d=1")
            else:
                # documented erratum: the variant must keep disagreeing here
                rec.check(
                    name,
                    agrees,
                    "variant unexpectedly agrees; the documented discrepancy is gone" if agrees else "",
                    expected_fail=True,
                )
    return rec.results


# -- symmetric functions ----------------------------------------------------------------


def suite_symfunc(depth: int) -> list[CheckResult]:
    rec = _Recorder("symfunc")
    size = max(2, min(depth, 9))

    bad = []
    for prog in _progressions(3):
        for count in range(0, 7):
            alphabet = Alphabet(prog, count)
            for degree in range(0, min(count, 6) + 1):
                if elementary_sigma(alphabet, degree) != cuboid_volume_oracle(
                    alphabet, degree, distinct=True
                ):
                    bad.append(f"{prog} count={count} degree={degree}: sigma != enumeration")
            for degree in range(0, 7):
                if count == 0 and degree > 0:
                    continue
                if complete_h(alphabet, degree) != cuboid_volume_oracle(
                    alphabet, degree, distinct=False
                ):
                    bad.append(f"{prog} count={count} degree={degree}: h != enumeration")
    rec.compare("generating-product builders match brute-force box enumeration", bad)

    bad = []
    for prog in _progressions(3):
        s2h = st.s2hat_triangle(prog, size)
        s1ph = st.s1phat_triangle(prog, size)
        for n in range(size + 1):
            for m in range(n + 1):
                if s2h.entry(n, m) != complete_h(Alphabet(prog, m + 1), n - m):
                    bad.append(f"{prog} ({n},{m}): second-kind complete-h identity fails")
                if s1ph.entry(n, m) != elementary_sigma(Alphabet(prog, n), n - m):
                    bad.append(f"{prog} ({n},{m}): first-kind elementary identity fails")
    rec.compare("triangle entries are symmetric functions of the progression", bad)

    bad = []
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
                    bad.append(f"{prog} count={count} r={r}: duality sum is {acc}")
    rec.compare("alternating sigma/h convolution vanishes (builder cross-guard)", bad)

    bad = []
    ordinary = st.s2_triangle(Progression(1, 0), size)
    for n in range(size + 1):
        for m in range(n + 1):
            # the zero symbol contributes nothing: m active symbols 1..m suffice
            shifted = Alphabet(Progression(1, 1), m)
            if complete_h(shifted, n - m) != ordinary.entry(n, m):
                bad.append(f"({n},{m}): dropping the zero symbol changes the value")
    rec.compare("at [1,0] the zero symbol can be dropped from the alphabet", bad)

    return rec.results


# -- driver -------------------------------------------------------------------------------


SUITE_NAMES = ("fps", "s2", "s1", "eulerian", "bernoulli", "faulhaber", "lah", "symfunc")

_SUITES: dict[str, Callable[..., list[CheckResult]]] = {
    "fps": suite_fps,
    "s2": suite_s2,
    "s1": suite_s1,
    "eulerian": suite_eulerian,
    "bernoulli": suite_bernoulli,
    "faulhaber": suite_faulhaber,
    "lah": suite_lah,
    "symfunc": suite_symfunc,
}


def run_suite(name: str, depth: int, include_printed_three_term: bool = False) -> list[CheckResult]:
    if name not in _SUITES:
        raise ValueError(f"unknown suite {name!r}")
    if name == "lah":
        return _SUITES[name](depth, include_printed_three_term)
    return _SUITES[name](depth)


def run_suites(
    names: Iterable[str], depth: int, include_printed_three_term: bool = False
) -> list[CheckResult]:
    results: list[CheckResult] = []
    for name in names:
        results.extend(run_suite(name, depth, include_printed_three_term))
    return results
