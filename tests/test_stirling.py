import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as stn

from apsums.cli import LIMITS
from apsums.errors import DomainError
from apsums.exact import Progression, fallfac, risefac
from apsums.stirling import (
    s1_pair,
    s1_triangle,
    s1hat_pair,
    s1p_triangle,
    s1phat_from_ordinary,
    s1phat_from_ordinary_triangle,
    s1phat_from_sigma,
    s1phat_schlomilch,
    s1phat_schlomilch_triangle,
    s1phat_schlomilch_v2,
    s1phat_schlomilch_v2_triangle,
    s1phat_triangle,
    s2_explicit,
    s2_from_ordinary,
    s2_from_ordinary_triangle,
    s2_ordinary_from_general,
    s2_ordinary_from_general_triangle,
    s2_pair,
    s2_triangle,
    s2fac_triangle,
    s2hat_triangle,
)
from apsums.verification import (
    _entries,
    _ordinary_s2_triangle,
    _progressions,
    _s1_falling_egf_violation,
    _s1_forward_shift_violation,
    _s1_row_polynomial_egf_violation,
    _s2_monomial_expansion_violation,
)

F = Fraction

rationals = stn.fractions(min_value=-5, max_value=5, max_denominator=12)


def int_rows(tri):
    return [[int(c) for c in row] for row in tri.rows]


class TestSecondKindTriangle:
    def test_generalized_rows(self):
        tri = s2_triangle(Progression(2, 1), 3)
        assert int_rows(tri) == [[1], [1, 2], [1, 8, 4], [1, 26, 36, 8]]
        scaled = s2hat_triangle(Progression(2, 1), 3)
        assert int_rows(scaled)[3] == [1, 13, 9, 1]

    def test_classical_rows(self):
        tri = s2_triangle(Progression(1, 0), 3)
        assert int_rows(tri) == [[1], [0, 1], [0, 1, 1], [0, 1, 3, 1]]

    def test_row_zero(self):
        assert int_rows(s2_triangle(Progression(4, 3), 0)) == [[1]]

    @pytest.mark.parametrize("prog", [Progression(7, 5), Progression(2**64 - 1, 2**64 - 1)])
    def test_families_match_the_alternating_sum_at_the_row_limit(self, prog):
        size = LIMITS["rows"]
        s2 = s2_triangle(prog, size)
        s2hat = s2hat_triangle(prog, size)
        s2fac = s2fac_triangle(prog, size)
        for n in range(size + 1):
            for m in range(n + 1):
                want = s2_explicit(prog, n, m)
                assert s2.entry(n, m) == want, (n, m)
                assert s2hat.entry(n, m) * prog.d**m == want, (n, m)
                assert s2fac.entry(n, m) == want * math.factorial(m), (n, m)

    def test_explicit_formula(self):
        assert s2_explicit(Progression(2, 1), 3, 2) == 36
        assert s2_explicit(Progression(1, 0), 6, 6) == 1
        # hyper-cuboid value 39 carried by the column-scaled variant triangle
        assert s2_explicit(Progression(3, 2), 3, 1) == 117
        assert s2hat_triangle(Progression(3, 2), 3).entry(3, 1) == 39

    def test_explicit_rejects_above_diagonal(self):
        with pytest.raises(DomainError, match=r"entry \(2, 3\) lies outside the triangle"):
            s2_explicit(Progression(1, 0), 2, 3)

    def test_from_ordinary(self):
        assert s2_from_ordinary(Progression(2, 1), 2, 1) == 8
        assert s2_from_ordinary(Progression(2, 1), 0, 0) == 1
        for n in range(6):
            for m in range(n + 1):
                assert s2_from_ordinary(Progression(1, 0), n, m) == s2_explicit(
                    Progression(1, 0), n, m
                )

    def test_ordinary_recovered_from_general(self):
        assert s2_ordinary_from_general(Progression(2, 1), 3, 2) == 3
        assert s2_ordinary_from_general(Progression(2, 1), 1, 1) == 1
        assert s2_ordinary_from_general(Progression(3, 2), 2, 1) == 1

    def test_recovery_rejects_zero_offset(self):
        with pytest.raises(DomainError):
            s2_ordinary_from_general(Progression(2, 0), 2, 1)
        with pytest.raises(DomainError, match="degenerate at a = 0"):
            s2_ordinary_from_general_triangle(Progression(2, 0), 0)

    def test_four_route_agreement(self, identity):
        # the Sheffer route materializes every column e.g.f. e^(at) (e^(dt)-1)^m / m!
        identity("s2: four routes agree (recurrence, alternating sum, via ordinary, Sheffer)")


class TestSecondKindGeneratingFunctions:
    def test_column_ogf_product(self, identity):
        identity("s2: column o.g.f. (reciprocal product) reproduces the triangle")

    def test_column_ogf_partial_fractions(self, identity):
        identity("s2: column o.g.f. partial fractions (geometric sums) agree")

    def test_complete_homogeneous_identity(self, identity):
        identity("s2: column-scaled entries are complete homogeneous symmetric functions")
        for prog in _progressions(3):
            scaled = s2hat_triangle(prog, 9)
            s2 = s2_triangle(prog, 9)
            for n in range(10):
                for m in range(n + 1):
                    assert scaled.entry(n, m) * prog.d**m == s2.entry(n, m)

    def test_s2fac_row_sum_egf(self, identity):
        identity("s2: factorial-scaled row sums have the geometric-of-exponential e.g.f.")


class TestBasisTransitions:
    def test_monomial_coefficients(self):
        assert list(s2hat_triangle(Progression(1, 0), 2).row(2)) == [0, 1, 1]
        assert list(s2hat_triangle(Progression(2, 1), 2).row(2)) == [1, 4, 1]
        assert list(s2hat_triangle(Progression(3, 2), 0).row(0)) == [1]

    @given(stn.integers(1, 3), stn.integers(0, 3), stn.integers(0, 8))
    def test_expansion_recovers_the_monomial(self, d, a, n):
        assert _s2_monomial_expansion_violation(Progression(d, a), n) is None


class TestS2fac:
    def test_classical_rows(self):
        tri = s2fac_triangle(Progression(1, 0), 3)
        assert int_rows(tri) == [[1], [0, 1], [0, 1, 2], [0, 1, 6, 6]]

    def test_diagonal(self):
        assert s2fac_triangle(Progression(2, 1), 2).entry(2, 2) == 8

    def test_row_zero(self):
        assert int_rows(s2fac_triangle(Progression(3, 1), 0)) == [[1]]

    def test_matches_scaling(self, identity):
        identity("s2: factorial-scaled triangle matches S2 * m! and has diagonal d^n n!")


class TestFirstKindTriangle:
    def test_generalized_rows(self):
        tri = s1phat_triangle(Progression(2, 1), 4)
        assert int_rows(tri)[4] == [105, 176, 86, 16, 1]

    def test_classical_unsigned(self):
        tri = s1phat_triangle(Progression(1, 0), 4)
        assert tri.entry(4, 2) == 11

    def test_column_zero_is_rising_product(self):
        tri = s1phat_triangle(Progression(3, 1), 4)
        assert tri.entry(4, 0) == 280
        for n in range(5):
            assert tri.entry(n, 0) == risefac(Progression(3, 1), 0, n)

    def test_sigma_route(self):
        assert s1phat_from_sigma(Progression(2, 1), 4, 1) == 176
        assert s1phat_from_sigma(Progression(2, 1), 5, 5) == 1
        assert s1phat_from_sigma(Progression(1, 0), 4, 2) == 11

    def test_from_ordinary(self):
        assert s1phat_from_ordinary(Progression(2, 1), 3, 1) == 23
        for n in range(6):
            for m in range(n + 1):
                assert s1phat_from_ordinary(Progression(1, 0), n, m) == s1phat_triangle(
                    Progression(1, 0), n
                ).entry(n, m)
        assert s1phat_from_ordinary(Progression(3, 1), 2, 0) == 4

    def test_ordinary_double_binomial(self):
        ordinary = Progression(1, 0)
        assert s1phat_schlomilch(ordinary, 4, 2) == 11
        assert s1phat_schlomilch(ordinary, 7, 7) == 1
        assert s1phat_schlomilch(ordinary, 0, 0) == 1
        assert s1phat_schlomilch(ordinary, 5, 1) == 24

    def test_reduces_to_the_classical_double_binomial_sum(self):
        # At (1, 0) the triple sum is the classical
        # sum_k (-1)^(n-m+k) C(n+k-1, m-1) C(2n-m, n-m-k) S2(n-m+k, k).
        # Both sides and the unsigned first-kind numbers are built here from
        # their own recurrences, beyond the verifier's s1 cap of 8 rows.
        rows = 12
        s2 = [[0] * (2 * rows + 1) for _ in range(2 * rows + 1)]
        s2[0][0] = 1
        for n in range(1, 2 * rows + 1):
            for k in range(1, n + 1):
                s2[n][k] = k * s2[n - 1][k] + s2[n - 1][k - 1]
        c = [[0] * (rows + 1) for _ in range(rows + 1)]
        c[0][0] = 1
        for n in range(1, rows + 1):
            for m in range(1, n + 1):
                c[n][m] = (n - 1) * c[n - 1][m] + c[n - 1][m - 1]
        for n in range(1, rows + 1):
            for m in range(1, n + 1):
                classical = sum(
                    (-1) ** (n - m + k)
                    * math.comb(n + k - 1, m - 1)
                    * math.comb(2 * n - m, n - m - k)
                    * s2[n - m + k][k]
                    for k in range(n - m + 1)
                )
                assert classical == c[n][m], (n, m)
                assert s1phat_schlomilch(Progression(1, 0), n, m) == classical, (n, m)

    def test_triple_sum(self):
        assert s1phat_schlomilch(Progression(2, 1), 4, 1) == 176
        assert s1phat_schlomilch(Progression(5, 0), 3, 1) == 50
        assert s1phat_schlomilch(Progression(2, 1), 6, 6) == 1

    def test_triple_sum_reordered(self):
        assert s1phat_schlomilch_v2(Progression(2, 1), 3, 1) == 23
        for n in range(6):
            assert s1phat_schlomilch_v2(Progression(2, 1), n, 0) == risefac(
                Progression(2, 1), 0, n
            )
        assert s1phat_schlomilch_v2(Progression(1, 0), 4, 2) == 11

    def test_five_route_agreement(self, identity):
        identity("s1: five routes agree (recurrence, symmetric fn, via ordinary, both triple sums)")


class TestInversePairing:
    def test_group_inverse_identity(self, identity):
        identity("s1: group inverse: S2 and S1 triangles multiply to the identity")

    def test_signed_inverse_pattern(self, identity):
        identity("s1: scaled inverse pair: |signed triangle| = non-negative triangle")

    def test_unsigned_is_row_scaled(self):
        prog = Progression(2, 1)
        s1p = s1p_triangle(prog, 6)
        s1ph = s1phat_triangle(prog, 6)
        for n in range(7):
            for m in range(n + 1):
                assert s1p.entry(n, m) * F(prog.d) ** n == s1ph.entry(n, m)

    def test_integer_route_matches_sheffer_at_the_row_limit(self):
        prog = Progression(7, 5)
        size = LIMITS["rows"]
        sheffer = s1_pair(prog, size).triangle(size)
        s1 = s1_triangle(prog, size)
        assert s1 == sheffer
        assert s1p_triangle(prog, size) == sheffer.signed()
        assert all(type(c) is Fraction for row in s1.rows for c in row)

    @pytest.mark.parametrize("prog", [Progression(1, 0), Progression(3, 2), Progression(7, 5),
                                      Progression(2**64 - 1, 2**64 - 1)], ids=str)
    def test_first_kind_rows_are_the_scaled_integer_rows_at_the_row_limit(self, prog):
        """S1p(n,m) = S1phat(n,m) / d^n and S1(n,m) = (-1)^(n-m) S1phat(n,m) / d^n
        over every served row, each entry a Fraction, also at d = 1."""
        size = LIMITS["rows"]
        s1phat = s1phat_triangle(prog, size)
        s1p = s1p_triangle(prog, size)
        s1 = s1_triangle(prog, size)
        for n in range(size + 1):
            for m in range(n + 1):
                want = F(s1phat.entry(n, m), prog.d**n)
                assert s1p.entry(n, m) == want, (n, m)
                assert s1.entry(n, m) == (-want if (n - m) % 2 else want), (n, m)
        assert all(type(c) is Fraction for tri in (s1p, s1) for row in tri.rows for c in row)

    def test_families_at_the_input_limit_scale_the_unit_triangle(self):
        """At d = a = lam every first-kind coefficient is lam times its value at
        (1, 1), so S1phat(lam,lam;n,m) = lam^(n-m) S1phat(1,1;n,m) and
        S1p(lam,lam;n,m) = S1phat(1,1;n,m) / lam^m, over every served row."""
        size = LIMITS["rows"]
        lam = LIMITS["parameter"]
        unit = s1phat_triangle(Progression(1, 1), size)
        via_ordinary = s1phat_from_ordinary_triangle(Progression(1, 1), size)
        prog = Progression(lam, lam)
        s1phat = s1phat_triangle(prog, size)
        s1p = s1p_triangle(prog, size)
        s1 = s1_triangle(prog, size)
        for n in range(size + 1):
            for m in range(n + 1):
                c = unit.entry(n, m)
                assert c == via_ordinary.entry(n, m), (n, m)
                assert s1phat.entry(n, m) == lam ** (n - m) * c, (n, m)
                assert s1p.entry(n, m) == F(c, lam**m), (n, m)
                assert s1.entry(n, m) == (-1) ** (n - m) * F(c, lam**m), (n, m)

    def test_inverse_pair_closed_form(self):
        inv = s2_pair(Progression(2, 1), 6).inverse()
        pair = s1_pair(Progression(2, 1), 6)
        assert inv.g == pair.g and inv.f == pair.f


class TestRowPolynomialIdentities:
    @given(stn.integers(1, 3), stn.integers(0, 3), rationals)
    def test_rising_factorial_rows(self, d, a, x):
        prog = Progression(d, a)
        tri = s1phat_triangle(prog, 8)
        for n in range(9):
            assert tri.row_polynomial(n).evaluate(x) == risefac(prog, x, n)

    @given(stn.integers(1, 3), stn.integers(0, 3), rationals)
    def test_falling_factorial_rows(self, d, a, x):
        prog = Progression(d, a)
        tri = s1hat_pair(prog, 8).triangle(8)
        for n in range(9):
            assert tri.row_polynomial(n).evaluate(x) == fallfac(prog, x, n)

    def test_forward_shift_recurrence(self):
        for prog in _progressions(3):
            assert _s1_forward_shift_violation(prog, s1phat_triangle(prog, 10)) is None

    def test_factorial_lowering_recurrence(self, identity):
        identity("s1: monic row polynomials obey the factorial lowering recurrence")

    def test_log_lowering_recurrence_for_s2_rows(self, identity):
        identity("s2: row polynomials obey the logarithmic lowering recurrence")

    @given(stn.integers(1, 3), stn.integers(0, 3), rationals)
    def test_fallfac_egf(self, d, a, x):
        assert _s1_falling_egf_violation(Progression(d, a), x, 10) is None

    @given(stn.integers(1, 3), stn.integers(0, 3), rationals)
    def test_first_kind_bivariate_egf(self, d, a, x):
        prog = Progression(d, a)
        assert _s1_row_polynomial_egf_violation(prog, s1phat_triangle(prog, 10), x) is None


# the desk grid, a served point with a > d, and the edge of the served domain
STAGED_GRID = [*_progressions(3), Progression(7, 5), Progression(2**64 - 1, 2**64 - 1)]


class TestStagedTriangleForms:
    """Each staged triangle form builds rows 0..12 at once: every row equals
    the per-entry route read off it and the family's own recurrence."""

    @pytest.mark.parametrize("staged, per_entry, builder, grid", [
        pytest.param(*case, id=case[0].__name__) for case in [
            (s2_from_ordinary_triangle, s2_from_ordinary, s2_triangle, STAGED_GRID),
            (s2_ordinary_from_general_triangle, s2_ordinary_from_general, _ordinary_s2_triangle,
             [prog for prog in STAGED_GRID if prog.a]),
            (s1phat_from_ordinary_triangle, s1phat_from_ordinary, s1phat_triangle, STAGED_GRID),
            (s1phat_schlomilch_triangle, s1phat_schlomilch, s1phat_triangle, STAGED_GRID),
            (s1phat_schlomilch_v2_triangle, s1phat_schlomilch_v2, s1phat_triangle, STAGED_GRID),
        ]
    ])
    def test_matches_per_entry_route_and_builder(self, staged, per_entry, builder, grid):
        for prog in grid:
            tri = staged(prog, 12)
            assert tri == _entries(per_entry)(prog, 12), prog
            assert tri == builder(prog, 12), prog
