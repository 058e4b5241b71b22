import math
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as stn

from apsums import cli
from apsums.errors import DomainError
from apsums.exact import Progression, integer_power
from apsums.powersum import (
    METHOD_NAMES,
    eps_coefficients,
    evaluate_method,
    gps_coefficients,
    method_evaluator,
    ps_direct,
    ps_faulhaber,
    ps_via_ordinary,
    sigma_s2,
)
from apsums.verification import _progressions

F = Fraction


class TestDirect:
    def test_odd_squares(self):
        assert ps_direct(Progression(2, 1), 2, 2) == 35

    def test_zero_power_counts_terms(self):
        # the j = 0 term contributes 0^0 = 1
        assert ps_direct(Progression(1, 0), 0, 5) == 6

    def test_triangular_number(self):
        assert ps_direct(Progression(1, 0), 1, 3) == 6

    @pytest.mark.parametrize("d, a, n, m", [
        (1, 0, 0, 0),  # the single term 0^0 = 1
        (3, 0, 0, 7),  # a = 0 at n = 0: the j = 0 term is 0^0 = 1
        (1, 0, 5, 7),
        (7, 5, 13, 40),
        (2**64 - 1, 2**64 - 1, 60, 5000),  # the largest served query
    ])
    def test_equals_a_plain_loop(self, d, a, n, m):
        expected = 0
        for j in range(m + 1):
            term = a + d * j
            expected += 1 if n == 0 else term**n
        value = ps_direct(Progression(d, a), n, m)
        assert type(value) is Fraction
        assert value == expected


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
        for prog in _progressions(3):
            for n in range(7):
                assert sigma_s2(prog, n, 0) == integer_power(prog.a, n)

    def test_top_index(self):
        for prog in _progressions(3):
            for n in range(7):
                assert sigma_s2(prog, n, n + 1) == F(prog.d) ** n * math.factorial(n)

    def test_domain(self):
        with pytest.raises(DomainError):
            sigma_s2(Progression(1, 0), 2, 4)

    def test_matches_reordered_explicit_row(self, identity):
        identity("faulhaber: stacked e.g.f. coefficients equal the reordered Eulerian row")


class TestCoefficientExtraction:
    def test_egf_classical(self):
        assert [eps_coefficients(Progression(1, 0), 2, m) for m in range(3)] == [0, 1, 5]

    def test_egf_counting(self):
        assert [eps_coefficients(Progression(3, 1), 0, m) for m in range(5)] == [1, 2, 3, 4, 5]

    def test_egf_odd_squares(self):
        assert [eps_coefficients(Progression(2, 1), 2, m) for m in range(3)] == [1, 10, 35]

    def test_ogf_triangular_numbers(self):
        for route in ("stacked", "eulerian"):
            values = [gps_coefficients(Progression(1, 0), 1, m, route) for m in range(5)]
            assert values == [0, 1, 3, 6, 10]

    def test_ogf_counting(self):
        assert [gps_coefficients(Progression(1, 0), 0, m, "stacked") for m in range(4)] == [1, 2, 3, 4]

    def test_ogf_odd_squares(self):
        assert [gps_coefficients(Progression(2, 1), 2, m, "stacked") for m in range(3)] == [1, 10, 35]

    def test_unknown_route(self):
        with pytest.raises(DomainError):
            gps_coefficients(Progression(1, 0), 1, 3, "middle-out")


class TestUniversalOracle:
    def test_all_routes_match_direct(self, identity):
        identity("faulhaber: all five formula routes equal direct summation")

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
            [eps_coefficients(prog, 30, m) for m in range(301)],
            [gps_coefficients(prog, 30, m, "stacked") for m in range(301)],
            [gps_coefficients(prog, 30, m, "eulerian") for m in range(301)],
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
        for bogus in ("bogus", ["direct"]):
            with pytest.raises(DomainError):
                evaluate_method(bogus, prog, 1, 1)


class TestMethodEvaluator:
    @pytest.mark.parametrize("method", METHOD_NAMES)
    @pytest.mark.parametrize(
        "prog", [Progression(7, 5), Progression(_LIMIT, _LIMIT)], ids=lambda p: f"d={p.d},a={p.a}"
    )
    def test_equals_the_per_m_function(self, method, prog):
        # evaluate_method calls the method's per-m public function
        for n in (0, 1, 2, 30, 60):
            at = method_evaluator(method, prog, n)
            for m in (0, 1, 2, 7, 5000):
                value = at(m)
                assert value == evaluate_method(method, prog, n, m), (n, m)
                assert type(value) is Fraction

    def test_domain(self):
        prog = Progression(2, 1)
        for bogus in ("bogus", ["direct"]):
            with pytest.raises(DomainError, match="unknown method"):
                method_evaluator(bogus, prog, 1)
        for method in METHOD_NAMES:
            with pytest.raises(DomainError, match="^indices must be non-negative$"):
                method_evaluator(method, prog, -1)
            with pytest.raises(DomainError, match="^indices must be non-negative$"):
                method_evaluator(method, prog, 2)(-1)


class TestPowersGeneratingFunctions:
    def test_single_powers_from_egf(self, identity):
        identity("faulhaber: single powers come out of both generating functions")

    def test_binomial_splitting(self, identity):
        # the registry covers d <= 4, a <= d, n <= 8, m <= 8 exhaustively
        identity("faulhaber: binomial splitting over the ordinary power sums")
