import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as stn

from apsums import cli
from apsums.errors import DomainError
from apsums.eulerian import reorder_a_to_b, reu_explicit
from apsums.exact import Progression, integer_power
from apsums.fps import Fps
from apsums.powersum import (
    METHOD_NAMES,
    eps_coefficients,
    evaluate_method,
    gps_coefficients,
    ps_direct,
    ps_faulhaber,
    ps_via_ordinary,
    sigma_s2,
)
from apsums.stirling import s2_triangle

F = Fraction


def progressions(d_max):
    return [Progression(d, a) for d in range(1, d_max + 1) for a in range(d + 1)]


class TestDirect:
    def test_odd_squares(self):
        assert ps_direct(Progression(2, 1), 2, 2) == 35

    def test_zero_power_counts_terms(self):
        # the j = 0 term contributes 0^0 = 1
        assert ps_direct(Progression(1, 0), 0, 5) == 6

    def test_triangular_number(self):
        assert ps_direct(Progression(1, 0), 1, 3) == 6


class TestOrdinaryFaulhaber:
    def test_matches_direct(self):
        assert ps_via_ordinary(Progression(2, 1), 2, 2) == 35

    def test_classical_case(self):
        assert ps_via_ordinary(Progression(1, 0), 1, 3) == 6

    def test_zero_power(self):
        for m in range(6):
            assert ps_via_ordinary(Progression(3, 2), 0, m) == m + 1


class TestGeneralizedFaulhaber:
    def test_odd_squares_through_the_formula(self):
        assert ps_faulhaber(Progression(2, 1), 2, 2) == 35

    def test_delta_term(self):
        assert ps_faulhaber(Progression(1, 0), 0, 0) == 1

    def test_three_terms(self):
        assert ps_faulhaber(Progression(3, 1), 1, 2) == 12


_LIMIT = 2**64 - 1


class TestBernoulliRoutesAtTheLimits:
    @pytest.mark.parametrize("route", [ps_via_ordinary, ps_faulhaber], ids=lambda f: f.__name__)
    @pytest.mark.parametrize(
        "prog", [Progression(3, 2), Progression(_LIMIT, _LIMIT)], ids=lambda p: f"d={p.d},a={p.a}"
    )
    def test_largest_power_and_index(self, route, prog):
        assert route(prog, 60, 5000) == ps_direct(prog, 60, 5000)

    @pytest.mark.parametrize("route", [ps_via_ordinary, ps_faulhaber], ids=lambda f: f.__name__)
    @pytest.mark.parametrize(
        "prog", [Progression(1, 0), Progression(3, 2), Progression(_LIMIT, _LIMIT)],
        ids=lambda p: f"d={p.d},a={p.a}",
    )
    def test_single_zeroth_power(self, route, prog):
        # n = 0, m = 0 leaves only the d*delta_{n,0} and a^0 terms
        assert route(prog, 0, 0) == ps_direct(prog, 0, 0) == 1


class TestStackedCoefficients:
    def test_classical_row(self):
        assert [sigma_s2(Progression(1, 0), 2, j) for j in range(3)] == [0, 1, 3]

    def test_index_zero_is_power_of_a(self):
        assert sigma_s2(Progression(2, 1), 1, 0) == 1
        for prog in progressions(3):
            for n in range(7):
                assert sigma_s2(prog, n, 0) == integer_power(prog.a, n)

    def test_top_index(self):
        for prog in progressions(3):
            for n in range(7):
                assert sigma_s2(prog, n, n + 1) == F(prog.d) ** n * math.factorial(n)

    def test_domain(self):
        with pytest.raises(DomainError):
            sigma_s2(Progression(1, 0), 2, 4)

    def test_matches_reordered_explicit_row(self):
        for prog in progressions(3):
            for n in range(9):
                row = [reu_explicit(prog, n, i) for i in range(n + 1)] + [F(0)]
                b_side = reorder_a_to_b(row, n + 1)
                for j in range(n + 2):
                    assert b_side[j] == sigma_s2(prog, n, j)


class TestCoefficientExtraction:
    def test_egf_classical(self):
        assert eps_coefficients(Progression(1, 0), 2, 2) == [0, 1, 5]

    def test_egf_counting(self):
        assert eps_coefficients(Progression(3, 1), 0, 4) == [1, 2, 3, 4, 5]

    def test_egf_odd_squares(self):
        assert eps_coefficients(Progression(2, 1), 2, 2) == [1, 10, 35]

    def test_ogf_triangular_numbers(self):
        for route in ("stacked", "eulerian"):
            assert gps_coefficients(Progression(1, 0), 1, 4, route) == [0, 1, 3, 6, 10]

    def test_ogf_counting(self):
        assert gps_coefficients(Progression(1, 0), 0, 3, "stacked") == [1, 2, 3, 4]

    def test_ogf_odd_squares(self):
        assert gps_coefficients(Progression(2, 1), 2, 2, "stacked") == [1, 10, 35]

    def test_unknown_route(self):
        with pytest.raises(DomainError):
            gps_coefficients(Progression(1, 0), 1, 3, "middle-out")


class TestUniversalOracle:
    def test_all_routes_match_direct(self):
        for prog in progressions(3):
            for n in range(7):
                direct = [ps_direct(prog, n, m) for m in range(11)]
                assert eps_coefficients(prog, n, 10) == direct
                assert gps_coefficients(prog, n, 10, "stacked") == direct
                assert gps_coefficients(prog, n, 10, "eulerian") == direct
                for m in (0, 3, 10):
                    assert ps_via_ordinary(prog, n, m) == direct[m]
                    assert ps_faulhaber(prog, n, m) == direct[m]

    @given(stn.integers(1, 5), stn.integers(0, 4), stn.integers(0, 20), stn.integers(0, 200))
    def test_every_method_matches_direct_at_larger_sizes(self, d, a, n, m):
        prog = Progression(d, a)
        direct = ps_direct(prog, n, m)
        for name in METHOD_NAMES:
            assert evaluate_method(name, prog, n, m) == direct, name

    def test_coefficient_rows_at_size_30_by_300(self):
        prog = Progression(3, 2)
        direct = [ps_direct(prog, 30, m) for m in range(301)]
        rows = [
            eps_coefficients(prog, 30, 300),
            gps_coefficients(prog, 30, 300, "stacked"),
            gps_coefficients(prog, 30, 300, "eulerian"),
        ]
        for row in rows:
            assert row == direct
            assert all(type(value) is Fraction for value in row)

    def test_cli_all_methods_at_n60_m600(self, capsys):
        argv = ["powersum", "--d", "3", "--a", "2", "--n", "60", "--m", "600", "--all-methods"]
        assert cli.main(argv) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[0] for line in lines] == list(METHOD_NAMES)
        assert len({line.split()[1] for line in lines}) == 1

    def test_evaluate_method_dispatch(self):
        prog = Progression(2, 1)
        for name in METHOD_NAMES:
            assert evaluate_method(name, prog, 2, 2) == 35
        with pytest.raises(DomainError):
            evaluate_method("bogus", prog, 1, 1)


class TestPowersGeneratingFunctions:
    def test_single_powers_from_egf(self):
        for prog in progressions(3):
            tri = s2_triangle(prog, 8)
            for n in range(9):
                egf = Fps.exp_of(1, 10) * Fps(
                    [tri.entry(n, k) for k in range(n + 1)], order=10
                )
                for m in range(11):
                    assert egf.coefficient_times_factorial(m) == integer_power(prog.term(m), n)

    def test_single_powers_from_ogf(self):
        geom = Fps.geometric(1, 10)
        for prog in progressions(3):
            tri = s2_triangle(prog, 8)
            for n in range(9):
                ogf = Fps.zero(10)
                power = geom
                for k in range(n + 1):
                    ogf = ogf + power.shifted_up(k) * (tri.entry(n, k) * math.factorial(k))
                    power = power * geom
                for m in range(11):
                    assert ogf[m] == integer_power(prog.term(m), n)

    @given(stn.integers(1, 4), stn.integers(0, 4), stn.integers(0, 8), stn.integers(0, 8))
    def test_binomial_splitting(self, d, a, n, m):
        prog = Progression(d, min(a, d))
        base = Progression(1, 0)
        acc = F(0)
        for k in range(n + 1):
            acc += (
                math.comb(n, k)
                * integer_power(prog.a, n - k)
                * prog.d**k
                * ps_direct(base, k, m)
            )
        assert acc == ps_direct(prog, n, m)
