"""Command-line surface: triangle emission, power-sum queries, Bernoulli
values, the identity verifier, and b-file export.

Each subcommand's options are declared once, in ``_SUBCOMMANDS``.  A
well-formed request is read from that declaration by ``_fast_args``; only an
argv it declines imports ``argparse`` and builds the parser, from the same
declaration, so help, usage and every parse error are argparse's own bytes.
``verify`` imports the identity registry when it runs; no other request
loads it.

Exit codes: 0 success, 1 verification failure (including power-sum route
disagreement), 2 usage or domain error or a closed stdout.  All output is
deterministic: identical invocations produce byte-identical bytes.
"""

from __future__ import annotations

import os
import sys
from collections.abc import Callable, Iterable, Sequence
from fractions import Fraction
from itertools import chain, islice
from types import SimpleNamespace

from . import bernoulli as bern
from . import eulerian as eul
from . import lah as lahmod
from . import powersum as ps
from . import stirling as st
from .errors import DomainError
from .exact import Progression, rational_str
from .sheffer import Triangle

# The largest value of every open-ended input (the smallest is 0, or 1 for
# --depth and --d); a request outside exits 2, one inside finishes within
# seconds.
LIMITS = {
    "rows": 64,  # triangle --rows: largest row index
    "depth": 12,  # verify --depth: verification.MAX_DEPTH, which a test checks
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

_FAMILIES = sorted(FAMILY_BUILDERS)

# Every subcommand as (help, the required flag of each of its mutually
# exclusive groups, its options), each option as flag -> (add_argument
# keywords, index of its exclusive group or None), in add_argument order.
# An option is a store_true or takes one value, an int or one of its choices;
# _fast_table reads no other kind.  The --suite choices are "all" and
# verification.SUITE_NAMES, which a test checks.
_SUBCOMMANDS: dict[str, tuple[str, tuple[bool, ...], dict[str, tuple[dict, int | None]]]] = {
    "triangle": ("emit a number triangle", (), {
        "--family": ({"required": True, "choices": _FAMILIES}, None),
        "--d": ({"type": int, "required": True, "help": "common difference d >= 1"}, None),
        "--a": ({"type": int, "default": 0, "help": "initial term a >= 0 (default 0)"}, None),
        "--rows": ({"type": int, "required": True,
                    "help": f"largest row index N, 0..{LIMITS['rows']}"}, None),
        "--format": ({"choices": ("pretty", "csv", "json", "bfile"), "default": "pretty"}, None),
        "--rational": ({"action": "store_true", "help": "allow non-integer b-file values"}, None),
    }),
    "powersum": ("evaluate a power sum over a progression", (False,), {
        "--d": ({"type": int, "required": True}, None),
        "--a": ({"type": int, "required": True}, None),
        "--n": ({"type": int, "required": True, "help": f"power, 0..{LIMITS['power']}"}, None),
        "--m": ({"type": int, "required": True,
                 "help": f"upper summation index, 0..{LIMITS['index']}"}, None),
        "--method": ({"choices": ps.METHOD_NAMES, "help": "one route (default direct)"}, 0),
        "--all-methods": ({"action": "store_true",
                           "help": "print a method/value table; exit 1 if any route disagrees"}, 0),
    }),
    "bernoulli": ("Bernoulli numbers and polynomials", (True,), {
        "--d": ({"type": int, "required": True}, None),
        "--a": ({"type": int, "default": None}, None),
        "--count": ({"type": int, "help": "emit values for n = 0..count-1, "
                     f"count 0..{LIMITS['bernoulli'] + 1}"}, 0),
        "--poly": ({"type": int, "help": "emit the degree-n polynomial instead, "
                    f"n 0..{LIMITS['bernoulli']}"}, 0),
    }),
    "verify": ("run the exact identity suites", (), {
        "--suite": ({"choices": ("all", "fps", "s2", "s1", "eulerian", "bernoulli", "faulhaber",
                                 "lah", "symfunc"), "default": "all"}, None),
        "--depth": ({"type": int, "default": 8,
                     "help": f"row/order scale, 1..{LIMITS['depth']} (default 8)"}, None),
        "--explain": ({"action": "store_true",
                       "help": "show the first mismatch per failure"}, None),
        "--include-printed-three-term": ({"action": "store_true", "help": "also run the "
                                          "published Lah three-term variant (expected-fail for "
                                          "d >= 2)"}, None),
    }),
    "export-bfile": ("emit an OEIS-style b-file", (True,), {
        "--family": ({"choices": _FAMILIES}, 0),
        "--sequence": ({"choices": ("bernoulli-num", "bernoulli-den")}, 0),
        "--d": ({"type": int, "required": True}, None),
        "--a": ({"type": int, "default": None}, None),
        "--count": ({"type": int, "required": True,
                     "help": f"number of lines; offset + count at most {LIMITS['bfile']} "
                     f"({LIMITS['bernoulli'] + 1} for a sequence)"}, None),
        "--offset": ({"type": int, "default": 0, "help": "index of the first line"}, None),
        "--rational": ({"action": "store_true", "help": "allow non-integer values"}, None),
    }),
}

# Built by the first build_parser() call and shared by every later one in the
# process; sharing is safe because parse_args keeps no state between calls.
_parser = None


def build_parser():
    """The CLI's argparse parser, built once per process and then reused."""
    global _parser
    if _parser is None:
        _parser = _new_parser()
    return _parser


def _new_parser():
    """A fresh root parser with the options of _SUBCOMMANDS."""
    import argparse  # only an argv that the fast path declines needs it

    parser = argparse.ArgumentParser(
        prog="apsums",
        description=(
            "Exact power sums over arithmetic progressions and the associated "
            "generalized Stirling, Eulerian, Bernoulli and Lah triangles."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (summary, groups, options) in _SUBCOMMANDS.items():
        command = sub.add_parser(name, help=summary)
        members = [command.add_mutually_exclusive_group(required=must) for must in groups]
        for flag, (keywords, group) in options.items():
            (command if group is None else members[group]).add_argument(flag, **keywords)
    return parser


def _fast_table(groups: tuple[bool, ...], options: dict[str, tuple[dict, int | None]]) -> tuple:
    """The fast path's table of one subcommand, derived from its declaration:
    each option string's (dest, const, type, choices, default, required,
    group), where type None marks a store_true, which stores const; the
    default of every dest; the number of required options; and whether each
    mutually exclusive group is required.  Dest, const and default are what
    argparse gives these keywords."""
    specs: dict[str, tuple] = {}
    for flag, (keywords, group) in options.items():
        store_true = keywords.get("action") == "store_true"
        default = keywords.get("default", False if store_true else None)
        kind = None if store_true else keywords.get("type", str)
        specs[flag] = (flag[2:].replace("-", "_"), store_true or None, kind,
                       keywords.get("choices"), default, keywords.get("required", False), group)
    defaults = {spec[0]: spec[4] for spec in specs.values()}
    return specs, defaults, sum(spec[5] for spec in specs.values()), groups


_TABLES = {name: _fast_table(groups, options)
           for name, (_, groups, options) in _SUBCOMMANDS.items()}


def _fast_args(argv: Sequence[str]) -> SimpleNamespace | None:
    """The namespace of a well-formed request, built from the table of its
    subcommand argv[0], or None when the table does not settle argv.

    Well-formed: every later word is an exact option of the subcommand, given
    once, and one that takes a value has the next word as its value, an int
    spelled as an optional minus and ASCII digits or one of its choices;
    every required option is present, and each mutually exclusive group has
    at most one member given, exactly one when it is required.  Such an argv
    leaves argparse nothing to resolve or refuse, so it would build this
    same namespace.
    """
    table = _TABLES.get(argv[0]) if argv else None
    if table is None:
        return None
    options, defaults, required, groups = table
    values = dict(defaults)
    given = set()
    members = [0] * len(groups)
    words = iter(argv[1:])
    for word in words:
        spec = options.get(word)
        if spec is None or spec[0] in given:
            return None
        dest, value, kind, choices, default, is_required, group = spec
        given.add(dest)
        if kind is not None:
            value = next(words, None)
            if value is None:
                return None
            if kind is int:
                # an optional minus and ASCII digits; every other spelling that
                # int() takes ("+5", "5_000", " 5", non-ASCII digits) is left
                # to argparse, as is one it refuses (more than 4,300 digits)
                digits = value[1:] if value.startswith("-") else value
                if not (digits.isascii() and digits.isdigit()):
                    return None
                try:
                    value = int(value)
                except ValueError:
                    return None
            if choices is not None and value not in choices:
                return None
        values[dest] = value
        required -= is_required
        # argparse counts a member of a group only when its value is not the default
        if group is not None and value is not default:
            members[group] += 1
    if required or any(n > 1 or (n == 0 and must) for n, must in zip(members, groups)):
        return None
    return SimpleNamespace(command=argv[0], **values)


def parse_args(argv: Sequence[str]) -> SimpleNamespace:
    """``build_parser().parse_args(argv)`` as a SimpleNamespace, without
    argparse where it can be: a well-formed request is read by _fast_args,
    and only another argv builds the parser."""
    args = _fast_args(argv)
    return SimpleNamespace(**vars(build_parser().parse_args(argv))) if args is None else args


# -- subcommand bodies -----------------------------------------------------------


def _check_range(flag: str, value: int, low: int, high: int) -> None:
    if not low <= value <= high:
        raise DomainError(f"{flag} must lie in {low}..{high}")


def _check_parameters(args: SimpleNamespace) -> None:
    """Refuse --d or --a above LIMITS["parameter"]; a value below its domain
    is refused by Progression or the Bernoulli builders in their own words."""
    for flag, value, low in (("--d", args.d, 1), ("--a", args.a, 0)):
        if value is not None and value > LIMITS["parameter"]:
            _check_range(flag, value, low, LIMITS["parameter"])


def _bfile_lines(texts: Iterable[str], start: int, rational: bool) -> str:
    """OEIS b-file lines ``i value`` for the canonical value ``texts``, indexed
    from ``start``.

    A non-integer value is refused unless ``rational`` is set: its text
    ``p/q`` is the only place a ``/`` can appear in the lines.
    """
    lines = "".join(f"{i} {text}\n" for i, text in enumerate(texts, start))
    if not rational and "/" in lines:
        raise DomainError("non-integer entries; pass --rational to export them")
    return lines


def _bernoulli_values(args: SimpleNamespace, count: int) -> list[Fraction]:
    """B(d; 0..count-1), or B(d, a; 0..count-1) when --a is given.

    --d and --a are checked against their domain even when count is 0.
    """
    n_max = max(count - 1, 0)
    if args.a is None:
        return bern.b_d_numbers(args.d, n_max)[:count]
    return bern.b_gen_numbers(Progression(args.d, args.a), n_max)[:count]


def _triangle_lines(tri: Triangle, args: SimpleNamespace) -> str:
    if args.format == "pretty":
        return tri.text(" ") + "\n"
    if args.format == "csv":
        return tri.text(",") + "\n"
    if args.format == "json":
        import json  # only this format needs it; every other request skips the import

        payload = {
            "family": args.family,
            "d": args.d,
            "a": args.a,
            "rows": list(tri.row_texts()),
        }
        return json.dumps(payload) + "\n"
    if args.format == "bfile":
        return _bfile_lines(chain.from_iterable(tri.row_texts()), 0, args.rational)
    raise DomainError(f"unknown format {args.format!r}")


def _cmd_triangle(args: SimpleNamespace) -> int:
    if args.rational and args.format != "bfile":
        raise DomainError("--rational applies only to --format bfile")
    _check_parameters(args)
    _check_range("--rows", args.rows, 0, LIMITS["rows"])
    prog = Progression(args.d, args.a)
    tri = FAMILY_BUILDERS[args.family](prog, args.rows)
    sys.stdout.write(_triangle_lines(tri, args))
    return 0


def _cmd_powersum(args: SimpleNamespace) -> int:
    _check_parameters(args)
    _check_range("--n", args.n, 0, LIMITS["power"])
    _check_range("--m", args.m, 0, LIMITS["index"])
    prog = Progression(args.d, args.a)
    if not args.all_methods:
        value = ps.evaluate_method(args.method or "direct", prog, args.n, args.m)
        sys.stdout.write(rational_str(value) + "\n")
        return 0
    values = {name: ps.evaluate_method(name, prog, args.n, args.m) for name in ps.METHOD_NAMES}
    width = max(len(name) for name in ps.METHOD_NAMES)
    for name in ps.METHOD_NAMES:
        sys.stdout.write(f"{name:<{width}} {rational_str(values[name])}\n")
    if any(value != values["direct"] for value in values.values()):
        sys.stdout.write("DISAGREEMENT detected\n")
        return 1
    return 0


def _cmd_bernoulli(args: SimpleNamespace) -> int:
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
    for value in _bernoulli_values(args, args.count):
        sys.stdout.write(rational_str(value) + "\n")
    return 0


def _cmd_verify(args: SimpleNamespace) -> int:
    from . import verification  # only verify needs the identity registry

    _check_range("--depth", args.depth, 1, LIMITS["depth"])
    names = verification.SUITE_NAMES if args.suite == "all" else (args.suite,)
    counts = {"ok": 0, "xfail": 0, "FAIL": 0}
    for name in names:
        for res in verification.run_suite(name, args.depth, args.include_printed_three_term):
            counts[res.status] += 1
            sys.stdout.write(f"{res.status:<6}{res.suite}: {res.name}\n")
            if args.explain and res.detail:
                sys.stdout.write(f"      first mismatch: {res.detail}\n")
    sys.stdout.write(
        f"checks: {sum(counts.values())} total, {counts['ok']} ok, {counts['xfail']} expected-fail, "
        f"{counts['FAIL']} failed (suite={args.suite}, depth={args.depth})\n"
    )
    return 1 if counts["FAIL"] else 0


def _bfile_window(args: SimpleNamespace) -> Iterable[str]:
    """The texts of the values offset..offset+count-1; a triangle family is read
    row by row."""
    needed = args.offset + args.count
    if args.sequence is not None:
        part = "numerator" if args.sequence == "bernoulli-num" else "denominator"
        return [str(getattr(v, part)) for v in _bernoulli_values(args, needed)[args.offset :]]
    prog = Progression(args.d, args.a if args.a is not None else 0)
    size = 0
    while (size + 1) * (size + 2) // 2 < needed:
        size += 1
    tri = FAMILY_BUILDERS[args.family](prog, size)
    return islice(chain.from_iterable(tri.row_texts()), args.offset, needed)


def _cmd_export_bfile(args: SimpleNamespace) -> int:
    _check_parameters(args)
    lines = LIMITS["bfile"] if args.sequence is None else LIMITS["bernoulli"] + 1
    _check_range("--offset", args.offset, 0, lines)
    _check_range("--count", args.count, 0, lines - args.offset)
    sys.stdout.write(_bfile_lines(_bfile_window(args), args.offset, args.rational))
    return 0


_COMMANDS = {
    "triangle": _cmd_triangle,
    "powersum": _cmd_powersum,
    "bernoulli": _cmd_bernoulli,
    "verify": _cmd_verify,
    "export-bfile": _cmd_export_bfile,
}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = parse_args(sys.argv[1:] if argv is None else argv)
    except SystemExit as exc:  # argparse uses exit code 2 on usage errors
        return int(exc.code or 0)
    try:
        status = _COMMANDS[args.command](args)
        sys.stdout.flush()
        return status
    except DomainError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2
    except BrokenPipeError:
        # stdout was closed early; point fd 1 at devnull so the exit flush
        # of what is still buffered cannot raise a second time
        devnull = os.open(os.devnull, os.O_WRONLY)
        try:
            os.dup2(devnull, sys.stdout.fileno())
        finally:
            os.close(devnull)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
