"""Command-line surface: triangle emission, power-sum queries, Bernoulli
values, the identity verifier, and b-file export.

Exit codes: 0 success, 1 verification failure (including power-sum route
disagreement), 2 usage or domain error.  All output is deterministic:
identical invocations produce byte-identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Callable, Sequence

from . import bernoulli as bern
from . import eulerian as eul
from . import lah as lahmod
from . import powersum as ps
from . import stirling as st
from .errors import DomainError
from .exact import Progression, rational_str
from .sheffer import Triangle
from .verification import MAX_DEPTH, SUITE_NAMES, run_suites

# The largest value of every open-ended input (the smallest is 0, or 1 for
# --depth and --d); a request outside exits 2, one inside finishes within
# seconds.
LIMITS = {
    "rows": 64,  # triangle --rows: largest row index
    "depth": MAX_DEPTH,  # verify --depth
    "power": 60,  # powersum --n
    "index": 5000,  # powersum --m: upper summation index
    "bernoulli": 60,  # largest Bernoulli index: bernoulli --poly / --count, b-file sequences
    "bfile": 2000,  # export-bfile --offset + --count of a triangle family
    "parameter": 2**64 - 1,  # --d and --a of every subcommand
}

FAMILY_BUILDERS: dict[str, Callable[[Progression, int], Triangle]] = {
    "s2": st.s2_triangle,
    "s2hat": st.s2hat_triangle,
    "s2fac": st.s2fac_triangle,
    "s1": st.s1_triangle,
    "s1p": st.s1p_triangle,
    "s1phat": st.s1phat_triangle,
    "reu": eul.reu_triangle,
    "lah": lahmod.lah_triangle,
    "lahinv": lahmod.lah_inverse,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="apsums",
        description=(
            "Exact power sums over arithmetic progressions and the associated "
            "generalized Stirling, Eulerian, Bernoulli and Lah triangles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    tri = sub.add_parser("triangle", help="emit a number triangle")
    tri.add_argument("--family", required=True, choices=sorted(FAMILY_BUILDERS))
    tri.add_argument("--d", type=int, required=True, help="common difference d >= 1")
    tri.add_argument("--a", type=int, default=0, help="initial term a >= 0 (default 0)")
    tri.add_argument(
        "--rows", type=int, required=True, help=f"largest row index N, 0..{LIMITS['rows']}"
    )
    tri.add_argument(
        "--format", choices=("pretty", "csv", "json", "bfile"), default="pretty"
    )
    tri.add_argument("--rational", action="store_true", help="allow non-integer b-file values")

    pw = sub.add_parser("powersum", help="evaluate a power sum over a progression")
    pw.add_argument("--d", type=int, required=True)
    pw.add_argument("--a", type=int, required=True)
    pw.add_argument("--n", type=int, required=True, help=f"power, 0..{LIMITS['power']}")
    pw.add_argument(
        "--m", type=int, required=True, help=f"upper summation index, 0..{LIMITS['index']}"
    )
    pw.add_argument("--method", choices=ps.METHOD_NAMES, default="direct")
    pw.add_argument(
        "--all-methods",
        action="store_true",
        help="print a method/value table; exit 1 if any route disagrees",
    )

    be = sub.add_parser("bernoulli", help="Bernoulli numbers and polynomials")
    be.add_argument("--d", type=int, required=True)
    be.add_argument("--a", type=int, default=None)
    wanted = be.add_mutually_exclusive_group(required=True)
    wanted.add_argument(
        "--count",
        type=int,
        help=f"emit values for n = 0..count-1, count 0..{LIMITS['bernoulli'] + 1}",
    )
    wanted.add_argument(
        "--poly",
        type=int,
        help=f"emit the degree-n polynomial instead, n 0..{LIMITS['bernoulli']}",
    )

    ver = sub.add_parser("verify", help="run the exact identity suites")
    ver.add_argument("--suite", choices=("all",) + SUITE_NAMES, default="all")
    ver.add_argument(
        "--depth", type=int, default=8, help=f"row/order scale, 1..{LIMITS['depth']} (default 8)"
    )
    ver.add_argument("--explain", action="store_true", help="show the first mismatch per failure")
    ver.add_argument(
        "--include-printed-three-term",
        action="store_true",
        help="also run the published Lah three-term variant (expected-fail for d >= 2)",
    )

    bf = sub.add_parser("export-bfile", help="emit an OEIS-style b-file")
    target = bf.add_mutually_exclusive_group(required=True)
    target.add_argument("--family", choices=sorted(FAMILY_BUILDERS))
    target.add_argument("--sequence", choices=("bernoulli-num", "bernoulli-den"))
    bf.add_argument("--d", type=int, required=True)
    bf.add_argument("--a", type=int, default=None)
    bf.add_argument(
        "--count",
        type=int,
        required=True,
        help=f"number of lines; offset + count at most {LIMITS['bfile']} "
        f"({LIMITS['bernoulli'] + 1} for a sequence)",
    )
    bf.add_argument("--offset", type=int, default=0, help="index of the first line")
    bf.add_argument("--rational", action="store_true", help="allow non-integer values")
    return parser


# -- subcommand bodies -----------------------------------------------------------


def _check_range(flag: str, value: int, low: int, high: int) -> None:
    if not low <= value <= high:
        raise DomainError(f"{flag} must lie in {low}..{high}")


def _check_parameters(args: argparse.Namespace) -> None:
    """Refuse --d or --a above LIMITS["parameter"]; a value below its domain
    is refused by Progression or the Bernoulli builders in their own words."""
    for flag, value, low in (("--d", args.d, 1), ("--a", args.a, 0)):
        if value is not None and value > LIMITS["parameter"]:
            _check_range(flag, value, low, LIMITS["parameter"])


def _triangle_lines(tri: Triangle, args: argparse.Namespace) -> str:
    if args.format == "pretty":
        return tri.text(" ") + "\n"
    if args.format == "csv":
        return tri.text(",") + "\n"
    if args.format == "json":
        payload = {
            "family": args.family,
            "d": args.d,
            "a": args.a,
            "rows": [[rational_str(c) for c in row] for row in tri.rows],
        }
        return json.dumps(payload) + "\n"
    if args.format == "bfile":
        flat = [c for row in tri.rows for c in row]
        if not args.rational and any(c.denominator != 1 for c in flat):
            raise DomainError("non-integer entries; pass --rational to export them")
        return "".join(f"{i} {rational_str(c)}\n" for i, c in enumerate(flat))
    raise DomainError(f"unknown format {args.format!r}")


def _cmd_triangle(args: argparse.Namespace) -> int:
    _check_parameters(args)
    _check_range("--rows", args.rows, 0, LIMITS["rows"])
    prog = Progression(args.d, args.a)
    tri = FAMILY_BUILDERS[args.family](prog, args.rows)
    sys.stdout.write(_triangle_lines(tri, args))
    return 0


def _cmd_powersum(args: argparse.Namespace) -> int:
    _check_parameters(args)
    _check_range("--n", args.n, 0, LIMITS["power"])
    _check_range("--m", args.m, 0, LIMITS["index"])
    prog = Progression(args.d, args.a)
    if not args.all_methods:
        value = ps.evaluate_method(args.method, prog, args.n, args.m)
        sys.stdout.write(rational_str(value) + "\n")
        return 0
    values = {name: ps.evaluate_method(name, prog, args.n, args.m) for name in ps.METHOD_NAMES}
    width = max(len(name) for name in ps.METHOD_NAMES)
    for name in ps.METHOD_NAMES:
        sys.stdout.write(f"{name:<{width}} {rational_str(values[name])}\n")
    if len(set(values.values())) != 1:
        sys.stdout.write("DISAGREEMENT detected\n")
        return 1
    return 0


def _cmd_bernoulli(args: argparse.Namespace) -> int:
    _check_parameters(args)
    if args.d < 1:
        raise DomainError("--d must be a positive integer")
    if args.poly is not None:
        _check_range("--poly", args.poly, 0, LIMITS["bernoulli"])
        if args.a is None:
            poly = bern.b_d_poly(args.d, args.poly)
        else:
            poly = bern.b_gen_poly(Progression(args.d, args.a), args.poly)
        sys.stdout.write(str(poly) + "\n")
        return 0
    _check_range("--count", args.count, 0, LIMITS["bernoulli"] + 1)
    if args.count == 0:
        return 0
    if args.a is None:
        values = bern.b_d_numbers(args.d, args.count - 1)
    else:
        prog = Progression(args.d, args.a)
        values = bern.b_gen_numbers(prog, args.count - 1)
    for value in values:
        sys.stdout.write(rational_str(value) + "\n")
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    _check_range("--depth", args.depth, 1, LIMITS["depth"])
    names = SUITE_NAMES if args.suite == "all" else (args.suite,)
    results = run_suites(names, args.depth, args.include_printed_three_term)
    failed = 0
    passed = 0
    xfailed = 0
    for res in results:
        label = f"{res.suite}: {res.name}"
        if res.expected_fail and not res.passed:
            xfailed += 1
            sys.stdout.write(f"xfail {label}\n")
        elif res.ok:
            passed += 1
            sys.stdout.write(f"ok    {label}\n")
        else:
            failed += 1
            sys.stdout.write(f"FAIL  {label}\n")
            if args.explain and res.detail:
                sys.stdout.write(f"      first mismatch: {res.detail}\n")
    sys.stdout.write(
        f"checks: {len(results)} total, {passed} ok, {xfailed} expected-fail, "
        f"{failed} failed (suite={args.suite}, depth={args.depth})\n"
    )
    return 1 if failed else 0


def _bfile_sequence(args: argparse.Namespace) -> list[Fraction]:
    needed = args.offset + args.count
    if args.sequence is not None:
        if args.a is None:
            values = bern.b_d_numbers(args.d, max(needed - 1, 0))
        else:
            prog = Progression(args.d, args.a)
            values = bern.b_gen_numbers(prog, needed - 1)
        part = "numerator" if args.sequence == "bernoulli-num" else "denominator"
        return [Fraction(getattr(v, part)) for v in values]
    prog = Progression(args.d, args.a if args.a is not None else 0)
    size = 0
    while (size + 1) * (size + 2) // 2 < needed:
        size += 1
    tri = FAMILY_BUILDERS[args.family](prog, size)
    flat = [c for row in tri.rows for c in row]
    if not args.rational and any(c.denominator != 1 for c in flat[: needed]):
        raise DomainError("non-integer entries; pass --rational to export them")
    return flat


def _cmd_export_bfile(args: argparse.Namespace) -> int:
    _check_parameters(args)
    lines = LIMITS["bfile"] if args.sequence is None else LIMITS["bernoulli"] + 1
    _check_range("--offset", args.offset, 0, lines)
    _check_range("--count", args.count, 0, lines - args.offset)
    if args.count == 0:
        return 0
    values = _bfile_sequence(args)
    window = values[args.offset : args.offset + args.count]
    for i, value in enumerate(window, start=args.offset):
        sys.stdout.write(f"{i} {rational_str(value)}\n")
    return 0


_COMMANDS = {
    "triangle": _cmd_triangle,
    "powersum": _cmd_powersum,
    "bernoulli": _cmd_bernoulli,
    "verify": _cmd_verify,
    "export-bfile": _cmd_export_bfile,
}


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse uses exit code 2 on usage errors
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
