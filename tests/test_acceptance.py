"""Acceptance gate: every criterion below re-derives its quantities along
independent routes and requires bit-exact agreement (tolerance zero
throughout; these are identities of exact rationals, not approximations).
Each test prints one PASS line on success; a pytest failure is the FAIL
line for that criterion.  No identity of the registry in
``apsums.verification`` is restated here: a criterion that checks a whole
entry names it through the ``identity`` fixture (see conftest.py), and one
that checks a registered law on its own inputs calls that law's function.
``tests/test_identities.py`` runs every entry on its own.
"""

import math
import random
import subprocess
import sys
import time
from fractions import Fraction

from apsums import bernoulli as bern
from apsums import eulerian as eul
from apsums import lah as lahmod
from apsums import powersum as ps
from apsums import stirling as st
from apsums.exact import Progression
from apsums.fps import Fps
from apsums.symfunc import Alphabet, complete_h, cuboid_volume_oracle, elementary_sigma
from apsums.verification import (
    IDENTITIES,
    _b_d_poly_egf_violation,
    _b_gen_poly_egf_violation,
    _exp_log_pow_violation,
    _progressions,
    _reu_bivariate_egf_violation,
    _reversion_violation,
    _s1_row_polynomial_egf_violation,
    _s1_scaled_inverse_violation,
    _s2_column_ogf_violation,
)

F = Fraction


def _passed(n, text):
    print(f"ACCEPTANCE criterion {n}: PASS - {text}")


def egf_of(values, order):
    return Fps([F(v) / math.factorial(k) for k, v in enumerate(values)], order=order)


def test_criterion_01_faulhaber_equivalence(identity):
    identity("faulhaber: all five formula routes equal direct summation")
    _passed(1, "six power-sum routes identical over the full grid")


def test_criterion_02_worked_volume_examples():
    cases = [
        # (prog, n, m, value, second-kind?)
        (Progression(1, 0), 3, 2, 3, True),
        (Progression(2, 1), 3, 2, 9, True),
        (Progression(3, 2), 3, 1, 39, True),
        (Progression(1, 0), 4, 2, 11, False),
        (Progression(2, 1), 4, 1, 176, False),
        (Progression(3, 1), 4, 0, 280, False),
    ]
    for prog, n, m, value, second_kind in cases:
        if second_kind:
            assert st.s2hat_triangle(prog, n).entry(n, m) == value  # recurrence route
            assert complete_h(Alphabet(prog, m + 1), n - m) == value  # symmetric function
            assert cuboid_volume_oracle(Alphabet(prog, m + 1), n - m) == value  # enumeration
            assert st.s2_explicit(prog, n, m) == value * F(prog.d) ** m  # closed form
        else:
            assert st.s1phat_triangle(prog, n).entry(n, m) == value  # recurrence route
            assert elementary_sigma(Alphabet(prog, n), n - m) == value  # symmetric function
            assert cuboid_volume_oracle(Alphabet(prog, n), n - m, distinct=True) == value
            assert st.s1phat_schlomilch(prog, n, m) == value  # closed form
    _passed(2, "all six worked hyper-cuboid values reproduced by >= 3 routes each")


def test_criterion_03_sheffer_group_closure(identity):
    identity("s1: group inverse: S2 and S1 triangles multiply to the identity")
    for prog in _progressions(4):
        s1hat = st.s1hat_pair(prog, 12).triangle(12)
        assert _s1_scaled_inverse_violation(prog, s1hat, st.s1phat_triangle(prog, 12)) is None
    _passed(3, "S2*S1 = identity at N=12 and the scaled inverse is the signed triangle")


def test_criterion_04_triple_sum_formulas(identity):
    identity("s1: five routes agree (recurrence, symmetric fn, via ordinary, both triple sums)")
    _passed(4, "both triple-sum closed forms match the first-kind recurrence exactly")


def test_criterion_05_generating_function_suite():
    start = time.time()
    order = 10
    rng = random.Random(52)

    def sample_points(avoid_one=False):
        points = []
        while len(points) < 5:
            x = F(rng.randint(-9, 9), rng.randint(1, 7))
            if avoid_one and x == 1:
                continue
            points.append(x)
        return points

    for prog in (Progression(2, 1), Progression(3, 2), Progression(4, 1)):
        d, a = prog.d, prog.a

        # second-kind column e.g.f. and o.g.f.
        tri = st.s2_triangle(prog, order)
        for m in range(5):
            egf = Fps.exp_of(a, order)
            for j in range(1, m + 1):
                egf = egf * (Fps.exp_of(d, order) - 1) / j
            for n in range(order + 1):
                assert egf.coefficient_times_factorial(n) == tri.entry(n, m)
            assert _s2_column_ogf_violation(prog, tri, m) is None

        # row-reversed Eulerian bivariate e.g.f.
        reu = eul.reu_triangle(prog, order)
        for x in sample_points(avoid_one=True):
            assert _reu_bivariate_egf_violation(prog, reu, x) is None

        # power-sum e.g.f. in closed stacked form
        for n in range(7):
            sums = [ps.ps_direct(prog, n, m) for m in range(order + 1)]
            sigma = [ps.sigma_s2(prog, n, j) / math.factorial(j) for j in range(n + 2)]
            rhs = Fps.exp_of(1, order) * Fps(sigma, order=order)
            assert egf_of(sums, order) == rhs

        # Bernoulli e.g.f.s: numbers, bivariate two-parameter, bivariate one-parameter
        numbers = [bern.b_gen(prog, n) for n in range(order + 1)]
        assert egf_of(numbers, order) == bern.b_gen_egf(prog, order)
        points = sample_points()
        assert _b_gen_poly_egf_violation(prog, points, order) is None
        assert _b_d_poly_egf_violation(d, points, order) is None

        # first-kind column e.g.f. and bivariate e.g.f.
        s1phat = st.s1phat_triangle(prog, order)
        base = Fps([1, -d], order=order)
        g = base.pow(F(-a, d))
        f = -(base.log()) / d
        column = g
        for m in range(5):
            if m > 0:
                column = column * f / m
            for n in range(m, order + 1):
                assert column.coefficient_times_factorial(n) == s1phat.entry(n, m)
        for x in sample_points():
            assert _s1_row_polynomial_egf_violation(prog, s1phat, x) is None

        # Lah column e.g.f.
        lah = lahmod.lah_triangle(prog, order)
        g_lah = base.pow(F(-2 * a, d))
        f_lah = Fps.x(order) * base.reciprocal()
        column = g_lah
        for m in range(5):
            if m > 0:
                column = column * f_lah / m
            for n in range(m, order + 1):
                assert column.coefficient_times_factorial(n) == lah.entry(n, m)

    elapsed = time.time() - start
    assert elapsed < 20, f"criterion 5 exceeded its 20 s budget: {elapsed:.1f}s"
    _passed(5, f"ten generating-function identities verified to order 10 ({elapsed:.1f}s)")


def test_criterion_06_eulerian_suite(identity):
    identity("eulerian: four routes agree (recurrence, explicit, from S2fac, from ordinary)")
    identity("eulerian: row sums equal d^n n! independently of a")
    identity("eulerian: parameter flip a -> d-a reverses every row")
    _passed(6, "Eulerian formulas agree entrywise; row sums and reversal symmetry hold")


def test_criterion_07_bernoulli_suite(identity):
    identity("bernoulli: recursion reproduces the canonical first thirteen numbers")
    identity("bernoulli: the (-a)-convolution contracts to the a-independent numbers")
    identity("bernoulli: one-parameter polynomials satisfy P' = n P(n-1)")
    identity("bernoulli: parameter flip a -> d-a flips odd-index signs only")
    _passed(7, "Bernoulli recursion, a-independence, parity and Appell property exact")


def test_criterion_08_lah_suite(identity):
    identity("lah: product, Sheffer, four-term and three-term routes agree")
    identity("lah: transition identities between rising and falling factorials")
    identity("lah: inverse triangle: signed entries, own recurrence, identity product")
    for entry in IDENTITIES:
        if entry.printed_three_term:
            identity(entry.label)
    _passed(8, "four Lah routes agree; transitions exact; published variant fails only at d>=2")


def test_criterion_09_series_kernel():
    rng = random.Random(4099)
    order = 10
    for _ in range(8):
        coeffs = [F(0), F(rng.choice([1, -1, 2, 3]), rng.randint(1, 3))]
        coeffs += [F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(order - 1)]
        assert _reversion_violation(Fps(coeffs)) is None
    for _ in range(8):
        coeffs = [F(1)] + [F(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(order)]
        assert _exp_log_pow_violation(Fps(coeffs), F(1, 2), F(-1, 3)) is None
    _passed(9, "series reversion, exp/log inversion, power additivity and the Lagrange oracle agree at order 10")


def test_criterion_10_cli_verify_gate(src_dir):
    args = [sys.executable, "-m", "apsums", "verify", "--suite", "all", "--depth", "8"]
    start = time.time()
    first = subprocess.run(args, capture_output=True, text=True, cwd=src_dir)
    elapsed = time.time() - start
    second = subprocess.run(args, capture_output=True, text=True, cwd=src_dir)
    assert first.returncode == 0, first.stdout + first.stderr
    assert elapsed < 60, f"verify run took {elapsed:.1f}s"
    assert first.stdout == second.stdout
    assert first.stdout.splitlines()[-1].endswith("(suite=all, depth=8)")
    _passed(10, f"`apsums verify --suite all --depth 8` exits 0 in {elapsed:.1f}s, byte-stable")
