import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as stn

from apsums import powersum
from apsums.cli import FAMILY_BUILDERS, LIMITS, main
from apsums.exact import Progression
from apsums.sheffer import Triangle
from apsums.stirling import s2_triangle
from apsums.verification import SUITE_NAMES


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

    def test_failure_reporting_and_explain(self, capsys, monkeypatch):
        from apsums import cli as cli_module
        from apsums.verification import CheckResult

        def fake_run_suites(names, depth, include_printed_three_term=False):
            return [
                CheckResult("fps", "a healthy identity", True),
                CheckResult("fps", "a broken identity", False, "entry (2,1): 5 != 7"),
            ]

        monkeypatch.setattr(cli_module, "run_suites", fake_run_suites)
        code, out, _ = run_cli(capsys, "verify", "--suite", "fps", "--explain")
        assert code == 1
        assert "FAIL  fps: a broken identity" in out
        assert "first mismatch: entry (2,1): 5 != 7" in out
        assert "1 failed" in out.splitlines()[-1]


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
        ],
        ids=lambda value: " ".join(value) if isinstance(value, list) else str(value),
    )
    def test_request_at_the_limit_is_served(self, capsys, argv, lines):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert len(out.splitlines()) == lines


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


class TestConsoleEntry:
    def test_module_invocation_is_deterministic(self, src_dir):
        args = [sys.executable, "-m", "apsums", "triangle", "--family", "reu", "--d", "3",
                "--a", "2", "--rows", "4", "--format", "csv"]
        first = subprocess.run(args, capture_output=True, text=True, cwd=src_dir)
        second = subprocess.run(args, capture_output=True, text=True, cwd=src_dir)
        assert first.returncode == 0
        assert first.stdout == second.stdout
        assert first.stdout.splitlines()[2] == "4,13,1"
