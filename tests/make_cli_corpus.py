"""The CLI output corpus: a fixed grid of commands and the digests of what each prints.

    PYTHONPATH=src python3 tests/make_cli_corpus.py                # rewrite data/cli_corpus.json
    PYTHONPATH=src python3 tests/make_cli_corpus.py --show='ARGV'  # print one command's output

Each command runs in process through ``apsums.cli.main``.  The corpus maps the
command line (its arguments joined by ``shlex.join``, which ``--show`` splits back
with ``shlex.split``) to its exit code and the sha256 of its stdout and of its
stderr.  ``test_cli_corpus.py`` replays the grid
against the file.  Rewriting the file is a reviewed change: the commit that does
it names every command whose entry changed, and why.  ``--show`` at the commit
that last wrote the file prints the recorded output of a command the test
reports as changed.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import shlex
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest.mock import patch

from apsums import cli, powersum
from apsums.verification import SUITE_NAMES

CORPUS = Path(__file__).resolve().parent / "data" / "cli_corpus.json"

EDGE = 2**64 - 1
PROGRESSIONS = ((1, 0), (2, 1), (7, 5), (EDGE, EDGE))
FORMATS = ("pretty", "csv", "json", "bfile")
ROWS = (0, 1, 7, 64)
DEPTHS = (1, 2, 3, 4, 8, 12)
POWERS = ((0, 0), (1, 10), (60, 5000))  # (n, m) of the single-method power sums
COLUMNS = "80"  # argparse wraps usage and help to the terminal width
FIRST_KIND = ("s1", "s1p", "s1phat")  # row-scaled families: b-file windows decide --rational


def commands() -> list[list[str]]:
    """The grid, in a fixed order: the requests the CLI serves, then the
    parse-level ones."""
    return grid() + parse_level()


def grid() -> list[list[str]]:
    """Well-formed requests over the progressions, families, formats, routes,
    suites and depths, each written as a user types it."""
    grid = []
    for d, a in PROGRESSIONS:
        da = ["--d", str(d), "--a", str(a)]
        for family in sorted(cli.FAMILY_BUILDERS):
            for fmt in FORMATS:
                for rational in ([], ["--rational"]):
                    for rows in ROWS:
                        grid.append(["triangle", "--family", family, *da, "--rows", str(rows),
                                     "--format", fmt, *rational])
            bfile = ["export-bfile", "--family", family, *da]
            grid.append([*bfile, "--count", "2000"])
            grid.append([*bfile, "--offset", "1990", "--count", "10", "--rational"])
            if family in FIRST_KIND:
                grid.append([*bfile, "--count", "2000", "--rational"])
                grid.append([*bfile, "--count", "1"])  # row 0 alone: an integer window
                grid.append([*bfile, "--offset", "1", "--count", "2"])  # row 1: fractional for d > 1
        grid.append(["powersum", *da, "--n", "60", "--m", "5000", "--all-methods"])
        for method in powersum.METHOD_NAMES:
            for n, m in POWERS:
                grid.append(["powersum", *da, "--n", str(n), "--m", str(m), "--method", method])
        for given in (da, da[:2]):  # with --a and without it (the B(d; n) numbers)
            grid.append(["bernoulli", *given, "--count", "61"])
            grid.append(["bernoulli", *given, "--poly", "60"])
            for sequence in ("bernoulli-num", "bernoulli-den"):
                grid.append(["export-bfile", "--sequence", sequence, *given, "--count", "61"])
    for suite in SUITE_NAMES:
        for depth in DEPTHS:
            verify = ["verify", "--suite", suite, "--depth", str(depth), "--explain"]
            grid.append(verify)
            if suite == "lah":
                grid.append([*verify, "--include-printed-three-term"])
    return grid


def parse_level() -> list[list[str]]:
    """Requests that argparse answers itself (help and usage errors), plus valid
    requests whose spelling argparse must resolve: a "--" separator, an
    abbreviated option, an "=" form, a repeat, or an int that is not an
    optional minus and ASCII digits."""
    ok = ["--d", "2", "--a", "1", "--n", "2", "--m", "2"]  # a valid powersum request
    tri = ["--family", "s2", "--d", "2", "--rows", "3"]
    grid = [["-h"], ["--help"], []]
    grid += [[command, "-h"] for command in sorted(cli._COMMANDS)]
    grid += [
        ["verify", "--depth", "1", "--help"],
        ["frobnicate"],  # unknown command
        ["power", *ok],  # abbreviated command
        ["--d", "2", "powersum", *ok],  # an option before the command
        ["powersum", *ok, "--bogus"],  # unrecognized option
        ["powersum", *ok, "--bogus=1"],
        ["powersum", *ok, "extra"],  # trailing positional
        ["powersum", *ok, "extra", "--more", "-x"],
        ["--", "powersum", *ok],  # "--" separators
        ["powersum", "--", *ok],
        ["powersum", *ok, "--"],
        ["powersum", "--d", "2", "--a", "1", "--", "--n", "2", "--m", "2"],
        ["powersum", *ok, "--all"],  # abbreviations
        ["powersum", *ok, "--meth", "egf"],
        ["powersum", *ok, "--method=ordinary"],
        ["triangle", "--fam", "s2", "--d", "2", "--rows", "3"],
        ["export-bfile", "--fam", "s2", "--d", "2", "--count", "5"],
        ["triangle", *tri, "--r", "3"],  # ambiguous abbreviation: --rows or --rational
        ["powersum", "--d", "2", "--a", "1", "--n", "2"],  # missing required option
        ["triangle", "--d", "2", "--rows", "3"],
        ["powersum", "--d", "two", "--a", "1", "--n", "2", "--m", "2"],  # bad int
        ["verify", "--depth", "1.5"],
        ["powersum", *ok, "--method", "fast"],  # bad choice
        ["triangle", "--family", "s3", "--d", "2", "--rows", "3"],
        ["verify", "--suite", "nope"],
        ["powersum", *ok, "--method", "egf", "--all-methods"],  # mutually exclusive conflicts
        ["bernoulli", "--d", "2", "--count", "3", "--poly", "2"],
        ["export-bfile", "--family", "s2", "--sequence", "bernoulli-num", "--d", "2",
         "--count", "3"],
        ["powersum", *ok, "--d", "3"],  # a repeated option: the last one wins
        ["powersum", "--d", "-2", "--a", "1", "--n", "2", "--m", "2"],  # a negative value
        ["powersum", "--d", "2", "--a", "-0", "--n", "2", "--m", "2"],  # minus zero
        ["powersum", "--d", "+2", "--a", "1", "--n", "2", "--m", "2"],  # other spellings of an int
        ["powersum", "--d", "2", "--a", "1", "--n", "2", "--m", "2_0"],
        ["powersum", "--d", "2", "--a", "1", "--n", "\u0662", "--m", "2"],  # ARABIC-INDIC DIGIT TWO
        ["powersum", "--d", " 2", "--a", "1", "--n", "2", "--m", "2"],  # whitespace inside a word
        ["powersum", "--d", "1" + "0" * 4300, "--a", "1", "--n", "2", "--m", "2"],  # int() refuses
        ["powersum", "--d", "-", "--a", "1", "--n", "2", "--m", "2"],
        ["powersum", "--d=2", "--a", "1", "--n", "2", "--m", "2"],
        ["powersum", *ok, "--all-methods", "--all-methods"],  # a repeated switch
        ["triangle", *tri, "--format", "bfile", "--rational", "--rational"],
        ["bernoulli", "--d", "2"],  # no member of a required exclusive group
        ["export-bfile", "--d", "2", "--count", "3"],
    ]
    return grid


def run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one command, run in process."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err), patch.dict(os.environ, COLUMNS=COLUMNS):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue()


def record(code: int, out: str, err: str) -> dict:
    """The corpus entry of one command's result."""
    return {
        "exit": code,
        "stdout": hashlib.sha256(out.encode()).hexdigest(),
        "stderr": hashlib.sha256(err.encode()).hexdigest(),
    }


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--show", metavar="ARGV", help="print one command's exit code and output")
    return parser


def show_hint(line: str) -> str:
    """The shell command that prints the output of the corpus command ``line``.

    The value is quoted through ``shlex`` and attached with ``=``: as a
    separate word, a command that starts with ``-`` (``-h``, ``--help``) would
    be read as an option.
    """
    return f"python3 tests/make_cli_corpus.py --show={shlex.quote(line)}"


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.show is not None:
        code, out, err = run(shlex.split(args.show))
        sys.stdout.write(f"exit {code}\n--- stdout\n{out}--- stderr\n{err}")
        return 0
    entries = {shlex.join(cmd): record(*run(cmd)) for cmd in commands()}
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps({"commands": entries}, indent=1) + "\n")
    print(f"wrote {len(entries)} commands to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
