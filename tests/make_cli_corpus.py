"""The CLI output corpus: a fixed grid of commands and the digests of what each prints.

    PYTHONPATH=src python3 tests/make_cli_corpus.py                # rewrite data/cli_corpus.json
    PYTHONPATH=src python3 tests/make_cli_corpus.py --show 'ARGV'  # print one command's output

Each command runs in process through ``apsums.cli.main``.  The corpus maps the
command line (its arguments joined by single spaces) to its exit code and the
sha256 of its stdout and of its stderr.  ``test_cli_corpus.py`` replays the grid
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
import sys
from pathlib import Path

from apsums import cli
from apsums.verification import SUITE_NAMES

CORPUS = Path(__file__).resolve().parent / "data" / "cli_corpus.json"

EDGE = 2**64 - 1
PROGRESSIONS = ((1, 0), (2, 1), (7, 5), (EDGE, EDGE))
FORMATS = ("pretty", "csv", "json", "bfile")
ROWS = (0, 1, 7, 64)
DEPTHS = (1, 2, 3, 4, 8, 12)


def commands() -> list[list[str]]:
    """The grid, in a fixed order."""
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
        grid.append(["powersum", *da, "--n", "60", "--m", "5000", "--all-methods"])
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


def run(argv: list[str]) -> tuple[int, str, str]:
    """(exit code, stdout, stderr) of one command, run in process."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    try:
        code = cli.main(argv)
    finally:
        sys.stdout, sys.stderr = saved
    return code, out.getvalue(), err.getvalue()


def record(code: int, out: str, err: str) -> dict:
    """The corpus entry of one command's result."""
    return {
        "exit": code,
        "stdout": hashlib.sha256(out.encode()).hexdigest(),
        "stderr": hashlib.sha256(err.encode()).hexdigest(),
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--show", metavar="ARGV", help="print one command's exit code and output")
    args = parser.parse_args(argv)
    if args.show is not None:
        code, out, err = run(args.show.split())
        sys.stdout.write(f"exit {code}\n--- stdout\n{out}--- stderr\n{err}")
        return 0
    entries = {" ".join(cmd): record(*run(cmd)) for cmd in commands()}
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps({"commands": entries}, indent=1) + "\n")
    print(f"wrote {len(entries)} commands to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
