import contextlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from itertools import chain

import pytest
from hypothesis import given
from hypothesis import strategies as stn

from apsums import bernoulli, cli, eulerian, lah, powersum, stirling, verification
from apsums.cli import FAMILY_BUILDERS, LIMITS, build_parser, main
from apsums.exact import Progression
from apsums.sheffer import Triangle
from apsums.stirling import s2_triangle
from apsums.verification import IDENTITIES, SUITE_NAMES, _ROUTES
from make_cli_corpus import grid, parse_level


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestTriangleCommand:
    def test_csv_small_s2(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "--family", "s2", "--d", "2", "--a", "1",
                               "--rows", "2", "--format", "csv")
        assert code == 0
        assert out == "1\n1,2\n1,8,4\n"

    def test_csv_s1phat(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "--family", "s1phat", "--d", "2", "--a", "1",
                               "--rows", "1", "--format", "csv")
        assert code == 0
        assert out == "1\n1,1\n"

    @pytest.mark.parametrize("family", sorted(FAMILY_BUILDERS))
    def test_csv_single_row(self, capsys, family):
        code, out, _ = run_cli(capsys, "triangle", "--family", family, "--d", "1", "--a", "0",
                               "--rows", "0", "--format", "csv")
        assert code == 0
        assert out == "1\n"

    @pytest.mark.parametrize("family", sorted(FAMILY_BUILDERS))
    def test_builders_yield_no_floats(self, family):
        for prog in (Progression(1, 0), Progression(2, 1), Progression(3, 2)):
            tri = FAMILY_BUILDERS[family](prog, 5)
            assert all(type(c) in (int, Fraction) for row in tri.rows for c in row)

    def test_pretty(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "--family", "s2hat", "--d", "2", "--a", "1",
                               "--rows", "2")
        assert code == 0
        assert out == "1\n1 1\n1 4 1\n"

    @pytest.mark.parametrize("family", sorted(FAMILY_BUILDERS))
    def test_json(self, capsys, family):
        code, out, _ = run_cli(capsys, "triangle", "--family", family, "--d", "2", "--a", "1",
                               "--rows", "2", "--format", "json")
        assert code == 0
        payload = json.loads(out)
        rows = FAMILY_BUILDERS[family](Progression(2, 1), 2).rows
        assert payload == {
            "family": family,
            "d": 2,
            "a": 1,
            "rows": [[str(Fraction(c)) for c in row] for row in rows],
        }
        if family == "lah":
            assert payload["rows"] == [["1"], ["2", "1"], ["8", "8", "1"]]

    def test_bfile_format(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "--family", "s1phat", "--d", "2", "--a", "1",
                               "--rows", "2", "--format", "bfile")
        assert code == 0
        assert out == "0 1\n1 1\n2 1\n3 3\n4 4\n5 1\n"

    def test_bfile_fractional_needs_flag(self, capsys):
        code, _, err = run_cli(capsys, "triangle", "--family", "s1", "--d", "2", "--a", "1",
                               "--rows", "2", "--format", "bfile")
        assert code == 2
        assert "rational" in err
        code, out, _ = run_cli(capsys, "triangle", "--family", "s1", "--d", "2", "--a", "1",
                               "--rows", "2", "--format", "bfile", "--rational")
        assert code == 0
        assert out.splitlines()[1] == "1 -1/2"

    @pytest.mark.parametrize("fmt", ["pretty", "csv", "json"])
    def test_rational_outside_bfile_is_refused(self, capsys, fmt):
        code, out, err = run_cli(capsys, "triangle", "--family", "s1", "--d", "2", "--rows", "2",
                                 "--format", fmt, "--rational")
        assert (code, out) == (2, "")
        assert err == "error: --rational applies only to --format bfile\n"

    def test_csv_roundtrip(self, capsys):
        code, out, _ = run_cli(capsys, "triangle", "--family", "s2", "--d", "3", "--a", "2",
                               "--rows", "5", "--format", "csv")
        assert code == 0
        rows = [[Fraction(cell) for cell in line.split(",")] for line in out.splitlines()]
        assert Triangle(rows) == s2_triangle(Progression(3, 2), 5)

    def test_unknown_family_is_usage_error(self, capsys):
        code, _, _ = run_cli(capsys, "triangle", "--family", "nope", "--d", "1", "--a", "0",
                             "--rows", "2")
        assert code == 2

    def test_bad_progression_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "triangle", "--family", "s2", "--d", "0", "--a", "0",
                               "--rows", "2")
        assert code == 2
        assert "error:" in err

    def test_row_cap(self, capsys):
        code, _, _ = run_cli(capsys, "triangle", "--family", "s2", "--d", "1", "--a", "0",
                             "--rows", "65")
        assert code == 2
        code, out, _ = run_cli(capsys, "triangle", "--family", "s2", "--d", "1", "--a", "0",
                               "--rows", "65", "--max-rows", "70", "--format", "csv")
        assert code == 2
        assert out == ""


class TestPowersumCommand:
    def test_default_method(self, capsys):
        code, out, _ = run_cli(capsys, "powersum", "--d", "2", "--a", "1", "--n", "2", "--m", "2")
        assert code == 0
        assert out == "35\n"

    @pytest.mark.parametrize("method", powersum.METHOD_NAMES)
    def test_each_method(self, capsys, method):
        code, out, _ = run_cli(capsys, "powersum", "--d", "3", "--a", "1", "--n", "3", "--m", "4",
                               "--method", method)
        assert code == 0
        assert out == "3605\n"  # 1^3 + 4^3 + 7^3 + 10^3 + 13^3

    def test_all_methods_table(self, capsys):
        code, out, _ = run_cli(capsys, "powersum", "--d", "2", "--a", "1", "--n", "2", "--m", "2",
                               "--all-methods")
        assert code == 0
        lines = out.splitlines()
        assert len(lines) == len(powersum.METHOD_NAMES)
        assert all(line.endswith("35") for line in lines)

    def test_all_methods_detects_disagreement(self, capsys, monkeypatch):
        real = powersum.evaluate_method

        def broken(method, prog, n, m):
            value = real(method, prog, n, m)
            return value + 1 if method == "faulhaber" else value

        monkeypatch.setattr(powersum, "evaluate_method", broken)
        code, out, _ = run_cli(capsys, "powersum", "--d", "2", "--a", "1", "--n", "2", "--m", "2",
                               "--all-methods")
        assert code == 1
        assert "DISAGREEMENT" in out

    def test_negative_index_rejected(self, capsys):
        code, _, _ = run_cli(capsys, "powersum", "--d", "1", "--a", "0", "--n", "-1", "--m", "0")
        assert code == 2


class TestBernoulliCommand:
    def test_ordinary_numbers(self, capsys):
        code, out, _ = run_cli(capsys, "bernoulli", "--d", "1", "--count", "5")
        assert code == 0
        assert out == "1\n-1/2\n1/6\n0\n-1/30\n"

    def test_one_parameter_numbers(self, capsys):
        code, out, _ = run_cli(capsys, "bernoulli", "--d", "2", "--count", "3")
        assert code == 0
        assert out == "1\n-1\n2/3\n"

    def test_two_parameter_numbers(self, capsys):
        code, out, _ = run_cli(capsys, "bernoulli", "--d", "2", "--a", "1", "--count", "3")
        assert code == 0
        assert out == "1\n0\n-1/3\n"

    def test_polynomial(self, capsys):
        code, out, _ = run_cli(capsys, "bernoulli", "--d", "2", "--poly", "3")
        assert code == 0
        assert out == "0 + 2*x + -3*x^2 + 1*x^3\n"

    def test_needs_count_or_poly(self, capsys):
        code, _, err = run_cli(capsys, "bernoulli", "--d", "2")
        assert code == 2
        assert "count" in err

    def test_zero_count(self, capsys):
        code, out, _ = run_cli(capsys, "bernoulli", "--d", "1", "--count", "0")
        assert code == 0
        assert out == ""

    def test_count_and_poly_are_exclusive(self, capsys):
        code, out, err = run_cli(capsys, "bernoulli", "--d", "1", "--count", "3", "--poly", "2")
        assert code == 2
        assert out == ""
        assert "not allowed with" in err


class TestVerifyCommand:
    def test_small_suite_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "fps", "--depth", "3")
        assert code == 0
        lines = out.splitlines()
        assert all(line.startswith(("ok", "xfail", "checks:")) for line in lines)
        assert lines[-1].startswith("checks:")
        assert "0 failed" in lines[-1]

    def test_depth_must_be_positive(self, capsys):
        code, _, _ = run_cli(capsys, "verify", "--suite", "fps", "--depth", "0")
        assert code == 2

    def test_depth_above_the_largest_cap_is_refused(self, capsys):
        code, out, err = run_cli(capsys, "verify", "--suite", "fps", "--depth", "13")
        assert code == 2
        assert out == ""
        assert "error:" in err

    def test_all_suites_pass_at_degenerate_depth(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "all", "--depth", "1")
        assert code == 0
        assert "0 failed" in out.splitlines()[-1]

    def test_printed_variant_reported_as_xfail(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--suite", "lah", "--depth", "3",
                               "--include-printed-three-term")
        assert code == 0
        assert "xfail lah: published three-term variant" in out

    def test_deterministic_output(self, capsys):
        _, first, _ = run_cli(capsys, "verify", "--suite", "eulerian", "--depth", "3")
        _, second, _ = run_cli(capsys, "verify", "--suite", "eulerian", "--depth", "3")
        assert first == second

    def test_deepest_pass_builds_few_fractions(self, capsys, monkeypatch):
        """Inside the package values stay int or integer pairs; a Fraction is
        built only where the API hands one out or a law draws a random rational."""
        built = [0]
        new = Fraction.__new__

        def counting(cls, *args, **kwargs):
            built[0] += 1
            return new(cls, *args, **kwargs)

        monkeypatch.setattr(Fraction, "__new__", counting)
        code, _, _ = run_cli(capsys, "verify", "--suite", "all", "--depth", str(LIMITS["depth"]))
        monkeypatch.undo()
        assert code == 0
        assert built[0] < 15_000

    def test_failure_reporting_and_explain(self, capsys, monkeypatch):
        from apsums.verification import CheckResult

        def fake_run_suite(name, depth, include_printed_three_term=False):
            return [
                CheckResult("fps", "a healthy identity", "ok"),
                CheckResult("fps", "a broken identity", "FAIL", "entry (2,1): 5 != 7"),
            ]

        monkeypatch.setattr(verification, "run_suite", fake_run_suite)
        code, out, _ = run_cli(capsys, "verify", "--suite", "fps", "--explain")
        assert code == 1
        assert "FAIL  fps: a broken identity" in out
        assert "first mismatch: entry (2,1): 5 != 7" in out
        assert "1 failed" in out.splitlines()[-1]

    def test_published_variant_that_agrees_is_a_failed_check(self, capsys, monkeypatch):
        from apsums import lah

        three_term = lah.lah_three_term

        def corrected(prog, size, printed=False):
            return three_term(prog, size)

        monkeypatch.setattr(lah, "lah_three_term", corrected)
        code, out, err = run_cli(capsys, "verify", "--suite", "lah", "--depth", "3", "--explain",
                                 "--include-printed-three-term")
        lines = out.splitlines()
        variant = "lah: published three-term variant reproduces the triangle at"
        assert code == 1
        for d, a in ((d, a) for d in range(1, 4) for a in range(d + 1)):
            at = lines.index(f"{'ok' if d == 1 else 'FAIL':<6}{variant} d={d} a={a}")
            if d >= 2:
                assert lines[at + 1] == (
                    "      first mismatch: variant unexpectedly agrees; the documented discrepancy is gone"
                )
        assert "xfail" not in out
        assert lines[-1] == "checks: 15 total, 8 ok, 0 expected-fail, 7 failed (suite=lah, depth=3)"
        assert err == ""

    @pytest.mark.parametrize("method", [name for name in powersum.METHOD_NAMES if name != "direct"])
    def test_broken_power_sum_route_is_named(self, capsys, monkeypatch, method):
        # the verifier stages each route once per (prog, n) and evaluates it at every m
        staged = powersum.method_evaluator

        def broken(name, prog, n):
            at = staged(name, prog, n)
            return lambda m: at(m) + (name == method and m == 5)

        monkeypatch.setattr(powersum, "method_evaluator", broken)
        code, out, _ = run_cli(capsys, "verify", "--suite", "faulhaber", "--depth", "1", "--explain")
        failed = [line for line in out.splitlines() if not line.startswith("ok")]
        assert code == 1
        assert failed[0] == "FAIL  faulhaber: all five formula routes equal direct summation"
        assert "m=5" in failed[1] and f"'{method}'" in failed[1]
        others = [name for name in powersum.METHOD_NAMES if name != method]
        assert [name for name in others if f"'{name}'" in failed[1]] == []
        assert failed[2].startswith("checks: ") and " 1 failed " in failed[2]
        assert len(failed) == 3

    def test_broken_complete_h_names_the_first_failing_degree(self, capsys, monkeypatch):
        from apsums import verification

        builder = verification.complete_h

        def broken(alphabet, degree):
            return builder(alphabet, degree) + (degree == 3)

        monkeypatch.setattr(verification, "complete_h", broken)
        code, out, _ = run_cli(capsys, "verify", "--suite", "symfunc", "--depth", "1", "--explain")
        lines = out.splitlines()
        assert code == 1
        failed = lines.index("FAIL  symfunc: alternating sigma/h convolution vanishes (builder cross-guard)")
        assert lines[failed + 1] == "      first mismatch: Progression(d=1, a=0) count=1 r=3: duality sum is 1"

    def test_broken_tangent_kernel_is_named(self, capsys, monkeypatch):
        from apsums import bernoulli

        kernel = bernoulli._tangent_numbers

        def broken(k_max):
            values = kernel(k_max)
            if k_max >= 3:
                values[2] += 1  # T(3), hence B(6)
            return values

        monkeypatch.setattr(bernoulli, "_tangent_numbers", broken)
        code, out, _ = run_cli(capsys, "verify", "--suite", "bernoulli", "--depth", "3", "--explain")
        lines = out.splitlines()
        assert code == 1
        failed = lines.index("FAIL  bernoulli: recursion reproduces the canonical first thirteen numbers")
        assert lines[failed + 1].startswith("      first mismatch: n=6: tangent kernel ")
        assert lines[failed + 1].endswith(" != recursion 1/42")


    def test_fractional_lah_pair_is_a_failed_check(self, capsys, monkeypatch):
        from apsums import lah
        from apsums.fps import Fps
        from apsums.sheffer import ShefferPair

        pair = lah.lah_pair

        def broken(prog, order):
            right = pair(prog, order)
            return ShefferPair(right.g + Fps.x(order) / 2, right.f)

        monkeypatch.setattr(lah, "lah_pair", broken)
        code, out, err = run_cli(capsys, "verify", "--suite", "lah", "--depth", "3", "--explain")
        lines = out.splitlines()
        assert code == 1
        failed = lines.index("FAIL  lah: product, Sheffer, four-term and three-term routes agree")
        assert lines[failed + 1] == (
            "      first mismatch: Progression(d=1, a=0) (1,0): lah_triangle=0 but sheffer=1/2"
        )
        assert err == ""

    @pytest.mark.parametrize(
        "module, pair_name, suite, check, builder, route",
        [
            ("stirling", "s2_pair", "s2",
             "four routes agree (recurrence, alternating sum, via ordinary, Sheffer)",
             "s2_triangle", "sheffer"),
            ("stirling", "s1_pair", "s1",
             "group inverse: S2 and S1 triangles multiply to the identity",
             "s1_triangle", "sheffer"),
            ("stirling", "s1phat_pair", "s1",
             "column e.g.f. (1-dt)^(-a/d) (-log(1-dt)/d)^m / m! reproduces the triangle",
             "s1phat_triangle", "column-egf"),
            ("lah", "lah_inverse_pair", "lah",
             "inverse triangle: signed entries, own recurrence, identity product",
             "lah_inverse", "sheffer"),
        ],
        ids=["s2_pair", "s1_pair", "s1phat_pair", "lah_inverse_pair"],
    )
    def test_broken_sheffer_pair_route_is_named_with_both_values(
        self, capsys, monkeypatch, module, pair_name, suite, check, builder, route
    ):
        import importlib

        from apsums.fps import Fps
        from apsums.sheffer import ShefferPair

        owner = importlib.import_module(f"apsums.{module}")
        pair = getattr(owner, pair_name)

        def broken(prog, order):
            right = pair(prog, order)
            return ShefferPair(right.g + Fps.x(order) / 2, right.f)

        monkeypatch.setattr(owner, pair_name, broken)
        code, out, err = run_cli(capsys, "verify", "--suite", suite, "--depth", "3", "--explain")
        failed = [line for line in out.splitlines() if not line.startswith("ok")]
        assert code == 1
        assert failed[:2] == [
            f"FAIL  {suite}: {check}",
            f"      first mismatch: Progression(d=1, a=0) (1,0): {builder}=0 but {route}=1/2",
        ]
        assert " 1 failed " in failed[2]
        assert len(failed) == 3
        assert err == ""

    def test_raising_route_is_a_failed_check(self, capsys, monkeypatch):
        def broken(prog, size):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(stirling, "s1phat_schlomilch_v2_triangle", broken)
        code, out, err = run_cli(capsys, "verify", "--suite", "s1", "--depth", "3", "--explain")
        assert code == 1
        assert [line for line in out.splitlines() if not line.startswith("ok")] == [
            "FAIL  s1: five routes agree (recurrence, symmetric fn, via ordinary, both triple sums)",
            "      first mismatch: ZeroDivisionError: division by zero",
            "checks: 11 total, 10 ok, 0 expected-fail, 1 failed (suite=s1, depth=3)",
        ]
        assert err == ""

    def test_raising_expected_fail_check_is_not_an_xfail(self, capsys, monkeypatch):
        from apsums import lah

        def broken(prog, size, printed=False):
            raise ZeroDivisionError("division by zero")

        monkeypatch.setattr(lah, "lah_three_term", broken)
        code, out, err = run_cli(capsys, "verify", "--suite", "lah", "--depth", "3",
                                 "--include-printed-three-term")
        assert code == 1
        assert "xfail" not in out
        assert "FAIL  lah: published three-term variant reproduces the triangle at d=2 a=1" in out
        assert "FAIL  lah: product, Sheffer, four-term and three-term routes agree" in out
        assert err == ""

    @pytest.mark.parametrize(
        "label, route",
        [pytest.param(label, route, id=f"{label} / {route}")
         for label, row in _ROUTES.items() for route in row()[2]],
    )
    def test_each_route_of_each_row_is_named_when_off_by_one(self, capsys, monkeypatch, label, route):
        """Entry (2,1) of one route, at the row's first grid point, off by one:
        ``verify`` fails that row's entry alone and names the route with both values."""
        row = _ROUTES[label]

        def broken_row():
            grid, build, routes = row()
            right = routes[route]

            def broken(prog, size):
                rows = [list(r) for r in right(prog, size).rows]
                rows[2][1] += prog == grid[0]
                return Triangle(rows)

            return grid, build, {**routes, route: broken}

        monkeypatch.setitem(_ROUTES, label, broken_row)
        code, out, err = run_cli(capsys, "verify", "--suite", label.split(": ")[0], "--depth", "3", "--explain")
        grid, build, _ = row()
        size = next(entry.size(3) for entry in IDENTITIES if entry.label == label)
        want = build(grid[0], size).entry(2, 1)
        lines = out.splitlines()
        failed = [i for i, line in enumerate(lines) if line.startswith("FAIL")]
        assert code == 1
        assert [lines[i] for i in failed] == [f"FAIL  {label}"]
        assert lines[failed[0] + 1] == (
            f"      first mismatch: {grid[0]} (2,1): {build.__name__}={want} but {route}={want + 1}"
        )
        assert err == ""

    def test_row_builders_are_the_cli_family_builders(self):
        """A row whose builder serves a CLI family checks the very function the CLI calls."""
        families = {builder.__name__: family for family, builder in FAMILY_BUILDERS.items()}
        served = set()
        for row in _ROUTES.values():
            build = row()[1]
            if build.__name__ in families:
                assert build is FAMILY_BUILDERS[families[build.__name__]]
                served.add(families[build.__name__])
        # s1p is s1 unsigned: test_integer_route_matches_sheffer_at_the_row_limit compares the two
        assert set(FAMILY_BUILDERS) - served == {"s1p"}

    def test_every_public_triangle_function_is_reached(self):
        """Each public function of ``stirling``, ``eulerian`` and ``lah`` is called
        by a row of the route table, by a CLI family builder, or by the
        non-table entry named for it below."""
        named_by_entry = {stirling.s2hat_pair: "s1: pair algebra is a homomorphism onto triangle algebra"}

        def called(run):
            codes = set()

            def hook(frame, event, arg):
                if event == "call":
                    codes.add(frame.f_code)

            sys.setprofile(hook)
            try:
                run()
            finally:
                sys.setprofile(None)
            return codes

        def run_rows():
            for row in _ROUTES.values():
                grid, build, routes = row()
                for route in (build, *routes.values()):
                    route(grid[0], 3)

        def run_cli_builders():
            for build in FAMILY_BUILDERS.values():
                build(Progression(2, 1), 3)

        reached = called(run_rows) | called(run_cli_builders)
        entries = {entry.label: entry for entry in IDENTITIES}
        by_entry = {fn.__code__: called(lambda: entries[label].run(3)) for fn, label in named_by_entry.items()}
        unreached = [
            f"{module.__name__}.{name}"
            for module in (stirling, eulerian, lah)
            for name in module.__all__
            if (code := getattr(module, name).__code__) not in reached | by_entry.get(code, set())
        ]
        assert unreached == []
        # a function named here is reached by its entry alone
        assert [fn.__name__ for fn in named_by_entry if fn.__code__ in reached] == []

    def test_every_public_triangle_function_is_listed(self):
        """The reach check above walks ``__all__``, so a public function that
        ``stirling``, ``eulerian`` or ``lah`` defines outside it would escape."""
        unlisted = [
            f"{module.__name__}.{name}"
            for module in (stirling, eulerian, lah)
            for name, fn in inspect.getmembers(module, inspect.isfunction)
            if fn.__module__ == module.__name__ and not name.startswith("_") and name not in module.__all__
        ]
        assert unlisted == []


class TestExportBfile:
    def test_flattened_triangle(self, capsys):
        code, out, _ = run_cli(capsys, "export-bfile", "--family", "s1phat", "--d", "2",
                               "--a", "1", "--count", "6", "--offset", "0")
        assert code == 0
        assert out == "0 1\n1 1\n2 1\n3 3\n4 4\n5 1\n"

    def test_single_line_of_sheffer_built_family(self, capsys):
        code, out, _ = run_cli(capsys, "export-bfile", "--family", "s1", "--d", "2", "--a", "1",
                               "--count", "1")
        assert code == 0
        assert out == "0 1\n"

    def test_bernoulli_numerators(self, capsys):
        code, out, _ = run_cli(capsys, "export-bfile", "--sequence", "bernoulli-num", "--d", "1",
                               "--count", "3", "--offset", "0")
        assert code == 0
        assert out == "0 1\n1 -1\n2 1\n"

    def test_bernoulli_denominators(self, capsys):
        code, out, _ = run_cli(capsys, "export-bfile", "--sequence", "bernoulli-den", "--d", "1",
                               "--count", "3")
        assert code == 0
        assert out == "0 1\n1 2\n2 6\n"

    def test_zero_count(self, capsys):
        code, out, _ = run_cli(capsys, "export-bfile", "--family", "s2", "--d", "1", "--a", "0",
                               "--count", "0")
        assert code == 0
        assert out == ""

    def test_offset_window(self, capsys):
        code, out, _ = run_cli(capsys, "export-bfile", "--family", "s1phat", "--d", "2",
                               "--a", "1", "--count", "3", "--offset", "3")
        assert code == 0
        assert out == "3 3\n4 4\n5 1\n"

    def test_fractional_family_needs_flag(self, capsys):
        code, _, err = run_cli(capsys, "export-bfile", "--family", "s1", "--d", "2", "--a", "1",
                               "--count", "4")
        assert code == 2
        assert "rational" in err
        code, out, _ = run_cli(capsys, "export-bfile", "--family", "s1", "--d", "2", "--a", "1",
                               "--count", "4", "--rational")
        assert code == 0
        assert out == "0 1\n1 -1/2\n2 1/2\n3 3/4\n"

    def test_only_exported_entries_must_be_integers(self, capsys):
        # entries 0..5 of s1[2,2] are 1, -1, 1/2, 2, -3/2, 1/4
        code, out, _ = run_cli(capsys, "export-bfile", "--family", "s1", "--d", "2", "--a", "2",
                               "--offset", "3", "--count", "1")
        assert code == 0
        assert out == "3 2\n"
        code, _, err = run_cli(capsys, "export-bfile", "--family", "s1", "--d", "2", "--a", "2",
                               "--offset", "3", "--count", "2")
        assert code == 2
        assert "rational" in err

    def test_family_and_sequence_are_exclusive(self, capsys):
        code, _, _ = run_cli(capsys, "export-bfile", "--family", "s2", "--sequence",
                             "bernoulli-num", "--d", "1", "--count", "2")
        assert code == 2


_PAST_PARAMETER = str(LIMITS["parameter"] + 1)


class TestInputLimits:
    @pytest.mark.parametrize(
        "argv",
        [
            ["powersum", "--d", "1", "--a", "0", "--n", str(LIMITS["power"] + 1), "--m", "1"],
            ["powersum", "--d", "1", "--a", "0", "--n", "1", "--m", str(LIMITS["index"] + 1)],
            ["powersum", "--d", "1", "--a", "0", "--n", "1", "--m", "-1"],
            ["bernoulli", "--d", "1", "--count", str(LIMITS["bernoulli"] + 2)],
            ["bernoulli", "--d", "1", "--poly", str(LIMITS["bernoulli"] + 1)],
            ["bernoulli", "--d", "1", "--poly", "-1"],
            ["export-bfile", "--family", "s2", "--d", "1", "--count", str(LIMITS["bfile"] + 1)],
            ["export-bfile", "--family", "s2", "--d", "1", "--count", str(LIMITS["bfile"]),
             "--offset", "1"],
            ["export-bfile", "--family", "s2", "--d", "1", "--count", "1", "--offset", "-1"],
            ["export-bfile", "--sequence", "bernoulli-num", "--d", "1",
             "--count", str(LIMITS["bernoulli"] + 2)],
            ["export-bfile", "--sequence", "bernoulli-den", "--d", "1", "--count", "1",
             "--offset", str(LIMITS["bernoulli"] + 1)],
            ["triangle", "--family", "lah", "--d", _PAST_PARAMETER, "--rows", "1"],
            ["triangle", "--family", "s1", "--d", "1", "--a", _PAST_PARAMETER, "--rows", "1"],
            ["powersum", "--d", _PAST_PARAMETER, "--a", "0", "--n", "1", "--m", "1"],
            ["powersum", "--d", "1", "--a", _PAST_PARAMETER, "--n", "1", "--m", "1"],
            ["bernoulli", "--d", _PAST_PARAMETER, "--count", "2"],
            ["bernoulli", "--d", "1", "--a", _PAST_PARAMETER, "--poly", "2"],
            ["export-bfile", "--family", "s2", "--d", _PAST_PARAMETER, "--count", "1"],
            ["export-bfile", "--sequence", "bernoulli-num", "--d", "1", "--a", _PAST_PARAMETER,
             "--count", "1"],
        ],
        ids=" ".join,
    )
    def test_out_of_budget_request_is_refused(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "must lie in" in err

    @pytest.mark.parametrize("method", ["direct", "ogf-eulerian"])
    def test_method_with_all_methods_is_refused(self, capsys, method):
        code, out, err = run_cli(capsys, "powersum", "--d", "1", "--a", "0", "--n", "1", "--m", "1",
                                 "--method", method, "--all-methods")
        assert (code, out) == (2, "")
        assert err.startswith("usage: ")
        assert "not allowed with" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["export-bfile", "--family", "s2", "--d", "0"],
            ["export-bfile", "--family", "s2", "--d", "1", "--a", "-1"],
            ["export-bfile", "--sequence", "bernoulli-num", "--d", "0"],
            ["bernoulli", "--d", "1", "--a", "-3"],
        ],
        ids=" ".join,
    )
    def test_out_of_domain_parameter_is_refused_at_count_zero(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--count", "0")
        assert (code, out) == (2, "")
        assert run_cli(capsys, *argv, "--count", "1") == (2, "", err)

    @pytest.mark.parametrize(
        "argv, lines",
        [
            (["powersum", "--d", "3", "--a", "2", "--n", str(LIMITS["power"]),
              "--m", str(LIMITS["index"])], 1),
            (["bernoulli", "--d", "2", "--a", "1", "--count", str(LIMITS["bernoulli"] + 1)],
             LIMITS["bernoulli"] + 1),
            (["bernoulli", "--d", "2", "--a", "1", "--poly", str(LIMITS["bernoulli"])], 1),
            (["export-bfile", "--family", "lah", "--d", "3", "--a", "2",
              "--count", str(LIMITS["bfile"] - 5), "--offset", "5"], LIMITS["bfile"] - 5),
            (["export-bfile", "--sequence", "bernoulli-num", "--d", "2", "--a", "1",
              "--count", str(LIMITS["bernoulli"] + 1)], LIMITS["bernoulli"] + 1),
            (["triangle", "--family", "s1", "--d", str(LIMITS["parameter"]),
              "--a", str(LIMITS["parameter"]), "--rows", str(LIMITS["rows"])], LIMITS["rows"] + 1),
            (["powersum", "--d", str(LIMITS["parameter"]), "--a", str(LIMITS["parameter"]),
              "--n", str(LIMITS["power"]), "--m", str(LIMITS["index"]), "--all-methods"],
             len(powersum.METHOD_NAMES)),
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else str(value),
    )
    def test_request_at_the_limit_is_served(self, capsys, argv, lines):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(out.splitlines()) == lines


def _cap_digits() -> int:
    """CPython's limit on the digits of an int converted to text; 0 means none."""
    return getattr(sys, "get_int_max_str_digits", lambda: 0)()


def _magnitudes(values):
    """The numerator and denominator magnitudes of int or Fraction values."""
    for value in values:
        p, q = Fraction(value).as_integer_ratio()
        yield abs(p)
        yield q


class TestDigitCap:
    """Every value a subcommand prints at the edge of ``LIMITS`` has fewer
    digits than CPython converts to text, so no request inside the limits can
    raise "Exceeds the limit ... for integer string conversion".  Each test
    derives an integer bound on the numerators and denominators printed at the
    edge, compares it with the cap without converting it, and checks that the
    values at the edge's corner d = a = LIMITS["parameter"] lie under it.
    ``verify`` prints values only in a mismatch detail, at the fixed desk-scale
    sizes of ``MAX_DEPTH``, and is not bounded here."""

    P = LIMITS["parameter"]

    @staticmethod
    def assert_below_the_cap(bound):
        cap = _cap_digits()
        fits = cap == 0 or bound < 10**cap
        assert fits, f"the bound has {math.floor(math.log10(bound)) + 1} digits, past the cap of {cap}"

    def test_triangle_and_export_bfile_entries(self):
        # export-bfile reads the rows that hold its first LIMITS["bfile"] entries
        rows = LIMITS["rows"]
        while (rows + 1) * (rows + 2) // 2 < LIMITS["bfile"]:
            rows += 1
        # every integer family runs T(n,m) = left(n,m) T(n-1,m-1) + right(n,m) T(n-1,m)
        # with |left| + |right| <= 1 + 2a + d(2n+1), which bounds the sum of |row n|;
        # s1 and s1p put the s1phat rows over d^n
        d = a = self.P
        bound = max(math.prod(1 + 2 * a + d * (2 * n + 1) for n in range(1, rows + 1)), d**rows)
        self.assert_below_the_cap(bound)
        for family, build in FAMILY_BUILDERS.items():
            tri = build(Progression(d, a), rows)
            assert max(_magnitudes(chain.from_iterable(tri.rows))) <= bound, family

    def test_power_sums(self):
        # m + 1 terms, each at most (a + d m)^n
        d = a = self.P
        n, m = LIMITS["power"], LIMITS["index"]
        bound = (m + 1) * (a + d * m) ** n
        self.assert_below_the_cap(bound)
        assert powersum.evaluate_method("faulhaber", Progression(d, a), n, m) <= bound

    def test_bernoulli_numbers_and_polynomials(self):
        # B(d,a;j) = sum_m C(j,m) a^(j-m) d^m B(m) is at most (a+d)^j max|B(m)|, and the
        # coefficient C(n,k) B(d,a;n-k) of a polynomial at most C(n, n//2) times that;
        # each reduced denominator divides the lcm L of those of B(0..n), so each
        # numerator is at most L times the value
        d = a = self.P
        n = LIMITS["bernoulli"]
        numbers = bernoulli.bernoulli_numbers(n)
        den = math.lcm(*(value.denominator for value in numbers))
        largest = max(math.ceil(abs(value)) for value in numbers)
        bound = den * math.comb(n, n // 2) * (a + d) ** n * largest
        self.assert_below_the_cap(bound)
        printed = [
            *bernoulli.b_gen_numbers(Progression(d, a), n), *bernoulli.b_d_numbers(d, n),
            *bernoulli.b_gen_poly(Progression(d, a), n).coefficients, *bernoulli.b_d_poly(d, n).coefficients,
        ]
        assert max(_magnitudes(printed)) <= bound


_SMALL = stn.integers(-1, 6)
_FAMILY = stn.sampled_from(sorted(FAMILY_BUILDERS))
# Every option of every subcommand, with the values to draw (None for a
# switch).  Sizes stay far inside LIMITS so each call is quick; verify skips
# "all" for the same reason.
_OPTIONS = {
    "triangle": {"--family": _FAMILY, "--d": _SMALL, "--a": _SMALL, "--rows": _SMALL,
                 "--format": stn.sampled_from(("pretty", "csv", "json", "bfile")),
                 "--rational": None},
    "powersum": {"--d": _SMALL, "--a": _SMALL, "--n": _SMALL, "--m": stn.integers(-1, 40),
                 "--method": stn.sampled_from(powersum.METHOD_NAMES), "--all-methods": None},
    "bernoulli": {"--d": _SMALL, "--a": _SMALL, "--count": _SMALL, "--poly": _SMALL},
    "verify": {"--suite": stn.sampled_from(SUITE_NAMES), "--depth": stn.integers(-1, 2),
               "--explain": None, "--include-printed-three-term": None},
    "export-bfile": {"--family": _FAMILY,
                     "--sequence": stn.sampled_from(("bernoulli-num", "bernoulli-den")),
                     "--d": _SMALL, "--a": _SMALL, "--count": stn.integers(-1, 30),
                     "--offset": _SMALL, "--rational": None},
}


@stn.composite
def _argv(draw):
    """A subcommand with most of its options; a missing required one is refused by argparse."""
    command = draw(stn.sampled_from(sorted(_OPTIONS)))
    argv = [command]
    for flag, values in _OPTIONS[command].items():
        if draw(stn.integers(0, 4)):
            argv.append(flag)
            if values is not None:
                argv.append(str(draw(values)))
    return argv


class TestRandomArgv:
    @given(_argv())
    def test_exit_code_is_0_1_or_2(self, argv):
        code = main(argv)
        assert code in (0, 1, 2)


# Tokens that argparse resolves itself; _noisy_argv splices them into a request.
_NOISE = ["--", "-h", "--help", "extra", "--bogus", "--bogus=1", "-x", "--all", "--fam", "--r",
          "--method=egf", "--d=3", "powersum", "power", ""]


@stn.composite
def _noisy_argv(draw):
    """An ``_argv`` request with a few tokens inserted, or its command dropped."""
    argv = draw(_argv())
    if draw(stn.booleans()):
        argv = argv[1:]
    for _ in range(draw(stn.integers(0, 3))):
        argv.insert(draw(stn.integers(0, len(argv))), draw(stn.sampled_from(_NOISE)))
    return argv


# The required options, and the mutually exclusive groups as (required, members),
# of each subcommand.
_REQUIRED = {"triangle": ("--family", "--d", "--rows"), "powersum": ("--d", "--a", "--n", "--m"),
             "bernoulli": ("--d",), "verify": (), "export-bfile": ("--d", "--count")}
_GROUPS = {"powersum": ((False, ("--method", "--all-methods")),),
           "bernoulli": ((True, ("--count", "--poly")),),
           "export-bfile": ((True, ("--family", "--sequence")),)}


@stn.composite
def _fast_argv(draw):
    """A well-formed request: every required option, at most one member of each
    exclusive group (one of a required group) and any of the rest, in random
    order, each value a separate word."""
    command = draw(stn.sampled_from(sorted(_OPTIONS)))
    options = _OPTIONS[command]
    flags = set(_REQUIRED[command])
    for required, members in _GROUPS.get(command, ()):
        flags.update(draw(stn.sampled_from([(m,) for m in members] + [()] * (not required))))
    grouped = {m for _, members in _GROUPS.get(command, ()) for m in members}
    flags.update(flag for flag in options if flag not in grouped and draw(stn.booleans()))
    argv = [command]
    for flag in draw(stn.permutations(sorted(flags))):
        argv.append(flag)
        if options[flag] is not None:
            argv.append(str(draw(options[flag])))
    return argv


_ARABIC_INDIC = str.maketrans("0123456789", "".join(map(chr, range(0x660, 0x66A))))
# Spellings of an int value that int() reads, or for 4,301 digits refuses, and
# that the fast path leaves to argparse.
_SPELLINGS = {
    "plus": lambda value: "+" + value,
    "underscore": lambda value: value + "_0",
    "space": lambda value: " " + value,
    "newline": lambda value: value + "\n",
    "arabic-indic": lambda value: value.translate(_ARABIC_INDIC),
    "4301 digits": lambda value: "1" + "0" * 4300,
    "minus": lambda value: "-",
}


@stn.composite
def _one_word_off(draw):
    """A ``_fast_argv`` request with one option repeated, abbreviated or given
    as --option=value, or one int value respelled as in _SPELLINGS; the kind
    of change is drawn first, so that each is drawn often."""
    argv = draw(_fast_argv().filter(lambda argv: len(argv) > 1))
    options = _OPTIONS[argv[0]]
    variants = {}
    for i, word in enumerate(argv):
        if word not in options:
            continue
        takes = argv[i + 1 : i + 2] if options[word] is not None else []
        variants.setdefault("repeated", []).append([*argv, word, *takes])
        for k in range(3, len(word)):
            if word[:k] not in options:
                variants.setdefault("abbreviated", []).append([*argv[:i], word[:k], *argv[i + 1 :]])
        if takes:
            variants.setdefault("=", []).append([*argv[:i], f"{word}={takes[0]}", *argv[i + 2 :]])
        if takes and takes[0].lstrip("-").isdigit():
            for kind, spell in _SPELLINGS.items():
                variants.setdefault(kind, []).append([*argv[: i + 1], spell(takes[0]), *argv[i + 2 :]])
    kind = draw(stn.sampled_from(sorted(variants)))
    return draw(stn.sampled_from(variants[kind]))


def _subparsers():
    """Each subcommand's argparse parser, read off the root parser's subparsers action."""
    return build_parser()._subparsers._group_actions[0].choices


def _parse_outcome(parse, argv):
    """The namespace ``parse(argv)`` returns, or its exit code, with what it printed."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            result = vars(parse(argv))
        except SystemExit as exc:
            result = exc.code
    return result, out.getvalue(), err.getvalue()


class TestDispatch:
    """main() reads a well-formed request from the fast path's table and hands
    any other to argparse; the outcome equals the root parser's own, namespace
    or exit code and bytes."""

    @staticmethod
    def assert_same_as_the_root_pass(argv):
        one_pass = _parse_outcome(cli.parse_args, argv)
        assert one_pass == _parse_outcome(cli._new_parser().parse_args, argv)

    @given(_argv())
    def test_random_request(self, argv):
        self.assert_same_as_the_root_pass(argv)

    @given(_noisy_argv())
    def test_random_request_with_noise(self, argv):
        self.assert_same_as_the_root_pass(argv)

    @pytest.mark.parametrize("argv", parse_level(), ids=" ".join)
    def test_parse_level_request(self, argv):
        self.assert_same_as_the_root_pass(argv)

    @given(_fast_argv())
    def test_well_formed_request_takes_the_fast_path(self, argv):
        assert cli._fast_args(argv) is not None
        self.assert_same_as_the_root_pass(argv)

    @given(_one_word_off())
    def test_request_one_word_off_takes_argparse(self, argv):
        assert cli._fast_args(argv) is None
        self.assert_same_as_the_root_pass(argv)

    def test_parse_level_requests_but_negative_values_leave_the_fast_path(self):
        served = [" ".join(argv) for argv in parse_level() if cli._fast_args(argv) is not None]
        assert served == ["powersum --d -2 --a 1 --n 2 --m 2", "powersum --d 2 --a -0 --n 2 --m 2"]

    def test_every_grid_request_takes_the_fast_path(self):
        """The corpus grid, the requests the CLI serves, never reaches argparse."""
        assert [cmd for cmd in grid() if cli._fast_args(cmd) is None] == []

    def test_fast_table_has_every_option_but_help(self):
        for name, sub in _subparsers().items():
            _, _, options = cli._SUBCOMMANDS[name]
            assert sorted(options) == sorted(set(sub._option_string_actions) - {"-h", "--help"})

    def test_every_subcommand_has_its_parser(self):
        assert sorted(_subparsers()) == sorted(cli._SUBCOMMANDS) == sorted(cli._COMMANDS)

    def test_depth_limit_is_the_registry_depth(self):
        assert LIMITS["depth"] == verification.MAX_DEPTH

    def test_suite_choices_are_the_registry_suites(self):
        _, _, options = cli._SUBCOMMANDS["verify"]
        keywords, _ = options["--suite"]
        assert keywords["choices"] == ("all",) + verification.SUITE_NAMES

    def test_no_argv_reads_sys_argv(self, capsys, monkeypatch):
        monkeypatch.setattr(sys, "argv", ["apsums", "powersum", "--d", "2", "--a", "1",
                                          "--n", "2", "--m", "2"])
        assert main() == 0
        assert capsys.readouterr() == ("35\n", "")


class TestConsoleEntry:
    def test_module_invocation_is_deterministic(self, src_dir):
        args = [sys.executable, "-m", "apsums", "triangle", "--family", "reu", "--d", "3",
                "--a", "2", "--rows", "4", "--format", "csv"]
        first = subprocess.run(args, capture_output=True, text=True, cwd=src_dir)
        second = subprocess.run(args, capture_output=True, text=True, cwd=src_dir)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.splitlines()[2] == "4,13,1"

    def test_closed_stdout_exits_2_without_traceback(self, src_dir):
        # about 1.8 MB of output: far more than a pipe buffer holds
        args = [sys.executable, "-m", "apsums", "triangle", "--family", "s2",
                "--d", str(2**64 - 1), "--a", str(2**64 - 1), "--rows", "64"]
        env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
        proc = subprocess.Popen(args, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                cwd=src_dir, env=env)
        assert len(proc.stdout.read(10)) == 10
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 2
        assert stderr == ""

    def test_closed_stdout_leaks_no_descriptor(self, src_dir):
        """Each closed-stdout request points fd 1 at devnull and closes the
        devnull descriptor it opened for that."""
        script = (
            "import os, sys\n"
            "import apsums.cli as cli\n"
            "def closed(args):\n"
            "    raise BrokenPipeError\n"
            "cli._COMMANDS['powersum'] = closed\n"
            "def lowest_free():\n"
            "    fd = os.open(os.devnull, os.O_RDONLY)\n"
            "    os.close(fd)\n"
            "    return fd\n"
            "before = lowest_free()\n"
            "codes = [cli.main(['powersum', '--d', '1', '--a', '0', '--n', '1', '--m', '1'])"
            " for _ in range(3)]\n"
            "print(codes, lowest_free() == before, file=sys.stderr)\n"
        )
        env = {**os.environ, "PYTHONPATH": str(src_dir)}
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                                env=env)
        assert (result.returncode, result.stdout, result.stderr) == (0, "", "[2, 2, 2] True\n")


class TestLeanImport:
    def test_cli_import_skips_dataclasses_inspect_json_and_typing(self, src_dir):
        """Without ``site`` (which may load ``typing`` itself), ``import apsums.cli``
        loads none of the four, and ``--format json`` still prints the same bytes."""
        script = (
            "import sys\n"
            "import apsums.cli\n"
            "print(sorted({'dataclasses', 'inspect', 'json', 'typing'} & set(sys.modules)))\n"
            "sys.exit(apsums.cli.main(['triangle', '--family', 'lah', '--d', '2', '--a', '1',"
            " '--rows', '2', '--format', 'json']))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(src_dir)}
        result = subprocess.run(
            [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == (
            "[]\n"
            '{"family": "lah", "d": 2, "a": 1, "rows": [["1"], ["2", "1"], ["8", "8", "1"]]}\n'
        )

    def test_well_formed_requests_load_neither_argparse_nor_the_registry(self, src_dir):
        """Without ``site``, a well-formed request of each subcommand but verify
        imports neither ``argparse`` nor ``apsums.verification``; verify loads
        the registry, and help loads argparse."""
        script = (
            "import sys\n"
            "import apsums.cli\n"
            "def loaded():\n"
            "    print(sorted({'argparse', 'apsums.verification'} & set(sys.modules)),"
            " file=sys.stderr)\n"
            "for argv in (['triangle', '--family', 's2', '--d', '2', '--a', '1', '--rows', '3',"
            " '--format', 'csv'],\n"
            "             ['powersum', '--d', '3', '--a', '2', '--n', '5', '--m', '10',"
            " '--all-methods'],\n"
            "             ['bernoulli', '--d', '2', '--a', '1', '--count', '4'],\n"
            "             ['export-bfile', '--family', 'lah', '--d', '2', '--a', '1',"
            " '--count', '5']):\n"
            "    assert apsums.cli.main(argv) == 0\n"
            "loaded()\n"
            "assert apsums.cli.main(['verify', '--suite', 'fps', '--depth', '1']) == 0\n"
            "loaded()\n"
            "assert apsums.cli.main(['-h']) == 0\n"
            "loaded()\n"
        )
        env = {**os.environ, "PYTHONPATH": str(src_dir)}
        result = subprocess.run(
            [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr == "[]\n['apsums.verification']\n['apsums.verification', 'argparse']\n"
        requests = (
            "1\n1,2\n1,8,4\n1,26,36,8\n"
            + "".join(f"{name:<12} 77737957\n" for name in powersum.METHOD_NAMES)
            + "1\n0\n-1/3\n0\n"
            + "0 1\n1 2\n2 1\n3 8\n4 8\n"
        )
        verify = (
            "ok    fps: scalars: risefac/fallfac duality and d-rescaling\n"
            "ok    fps: series: ring laws of truncated multiplication\n"
            "ok    fps: series: reversion roundtrip, identity composition, Lagrange crosscheck\n"
            "ok    fps: series: exp/log inversion and rational-power additivity\n"
            "ok    fps: series: factorial-scaling transform roundtrip\n"
            "checks: 5 total, 5 ok, 0 expected-fail, 0 failed (suite=fps, depth=1)\n"
        )
        assert result.stdout.startswith(requests + verify + "usage: apsums ")


class TestParserReuse:
    """main() parses every request with one parser per process; no request sees another's."""

    # A usage error, a valid request after it, help, a domain error, then --a
    # given and left out on one subcommand.
    SEQUENCE = [
        ["powersum", "--method", "direct", "--all-methods"],
        ["powersum", "--d", "2", "--a", "1", "--n", "2", "--m", "2", "--method", "direct"],
        ["--help"],
        ["triangle", "--family", "s2", "--d", "0", "--rows", "3"],
        ["bernoulli", "--d", "2", "--a", "1", "--count", "3"],
        ["bernoulli", "--d", "2", "--count", "3"],
    ]

    def test_build_parser_returns_one_parser(self):
        assert build_parser() is build_parser()

    def test_each_request_matches_a_fresh_process(self, capsys, monkeypatch, src_dir):
        monkeypatch.setenv("COLUMNS", "80")
        shared = [run_cli(capsys, *argv) for argv in self.SEQUENCE]
        env = {**os.environ, "COLUMNS": "80"}
        alone = []
        for argv in self.SEQUENCE:
            result = subprocess.run([sys.executable, "-m", "apsums", *argv], capture_output=True,
                                    text=True, cwd=src_dir, env=env)
            alone.append((result.returncode, result.stdout, result.stderr))
        assert shared == alone
        assert [code for code, _, _ in shared] == [2, 0, 0, 2, 0, 0]
        assert (shared[-2][1], shared[-1][1]) == ("1\n0\n-1/3\n", "1\n-1\n2/3\n")  # --a dropped

    def test_import_builds_no_parser(self, src_dir):
        """``import apsums.cli`` constructs no ArgumentParser; the first main() call
        that the fast path declines (``--d=2``) builds the parser and its subparsers
        once, and a second such call builds none."""
        script = (
            "import argparse\n"
            "progs = []\n"
            "init = argparse.ArgumentParser.__init__\n"
            "def counting(self, *args, **kwargs):\n"
            "    init(self, *args, **kwargs)\n"
            "    progs.append(self.prog)\n"
            "argparse.ArgumentParser.__init__ = counting\n"
            "import apsums.cli\n"
            "print(len(progs))\n"
            "apsums.cli.main(['powersum', '--d=2', '--a', '1', '--n', '2', '--m', '2'])\n"
            "apsums.cli.main(['bernoulli', '--d=2', '--count', '1'])\n"
            "print(progs.count('apsums'), len(progs) == len(set(progs)))\n"
        )
        env = {**os.environ, "PYTHONPATH": str(src_dir)}
        result = subprocess.run(
            [sys.executable, "-S", "-c", script], capture_output=True, text=True, env=env
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "0\n35\n1\n1 True\n"
