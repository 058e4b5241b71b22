"""Correctness oracles for benchmark responses.

Each check takes the argv of a request, its exit code and its stdout, and
returns an empty string when the response is right or a one-line reason
when it is not.  No oracle shares the code path the request timed:

* ``powersum``: plain ``int`` summation of the defining sum;
* ``bernoulli``: Bernoulli numbers from the Akiyama-Tanigawa algorithm in
  plain ``Fraction`` arithmetic, which the package does not use;
* ``triangle`` / ``export-bfile``: sampled entries from a different
  package route (alternating-sum closed forms, symmetric functions, or the
  four-term Lah recurrences) than the builder the CLI runs;
* ``verify``: the summary line must report 0 failed checks, consistent
  with the per-check lines.
"""

from __future__ import annotations

import json
import math
import random
import re
import zlib
from fractions import Fraction
from functools import lru_cache

from apsums import eulerian as eul
from apsums import lah as lahmod
from apsums import stirling as st
from apsums.exact import Progression
from workloads import option

METHODS = ("direct", "ordinary", "faulhaber", "egf", "ogf-stacked", "ogf-eulerian")
_SUMMARY = re.compile(
    r"checks: (\d+) total, (\d+) ok, (\d+) expected-fail, (\d+) failed "
    r"\(suite=(\w+), depth=(\d+)\)"
)
_SAMPLES = 6


def _int_opt(argv: list[str], flag: str, default: int | None = None) -> int | None:
    value = option(argv, flag)
    return default if value is None else int(value)


# -- power sums and Bernoulli numbers -------------------------------------------------


def _check_powersum(argv: list[str], out: str) -> str:
    d, a, n, m = (_int_opt(argv, f) for f in ("--d", "--a", "--n", "--m"))
    expected = str(sum((a + d * j) ** n for j in range(m + 1)))
    if "--all-methods" not in argv:
        return "" if out == expected + "\n" else f"value {out.strip()[:40]!r} != {expected[:40]!r}"
    rows = [line.split() for line in out.splitlines()]
    if [r[0] for r in rows if r] != list(METHODS):
        return f"method table has rows {[r[0] for r in rows if r]}"
    for name, *value in rows:
        if value != [expected]:
            return f"route {name} gave {' '.join(value)[:40]!r}"
    return ""


@lru_cache(maxsize=None)
def bernoulli_numbers(n_max: int) -> tuple[Fraction, ...]:
    """B(0..n_max) with B(1) = -1/2, by the Akiyama-Tanigawa transform."""
    out = []
    row: list[Fraction] = []
    for n in range(n_max + 1):
        row.append(Fraction(1, n + 1))
        for j in range(n, 0, -1):
            row[j - 1] = j * (row[j - 1] - row[j])
        out.append(-row[0] if n == 1 else row[0])
    return tuple(out)


def _bernoulli_values(d: int, a: int | None, n_max: int) -> list[Fraction]:
    """B(d;n) = d^n B(n), or B(d,a;n) = d^n B_n(a/d) when a is given."""
    numbers = bernoulli_numbers(n_max)
    if a is None:
        return [d**n * numbers[n] for n in range(n_max + 1)]
    return [
        sum(math.comb(n, k) * a ** (n - k) * d**k * numbers[k] for k in range(n + 1))
        for n in range(n_max + 1)
    ]


def _parse_polynomial(text: str) -> list[Fraction]:
    coeffs = []
    for k, term in enumerate(text.split(" + ")):
        suffix = "" if k == 0 else "*x" if k == 1 else f"*x^{k}"
        if not term.endswith(suffix):
            raise ValueError(f"term {k} is {term!r}")
        coeffs.append(Fraction(term[: len(term) - len(suffix)]))
    return coeffs


def _check_bernoulli(argv: list[str], out: str) -> str:
    d, a = _int_opt(argv, "--d"), _int_opt(argv, "--a")
    count, degree = _int_opt(argv, "--count"), _int_opt(argv, "--poly")
    if count is not None:
        expected = "".join(f"{v}\n" for v in _bernoulli_values(d, a, count - 1)) if count else ""
        return "" if out == expected else "Bernoulli values differ"
    values = _bernoulli_values(d, a, degree)
    expected = [math.comb(degree, m) * values[degree - m] for m in range(degree + 1)]
    while expected and expected[-1] == 0:
        expected.pop()
    got = _parse_polynomial(out.rstrip("\n")) if out.strip() != "0" else []
    return "" if got == expected else "Bernoulli polynomial coefficients differ"


# -- triangles ------------------------------------------------------------------------


def _entry_oracle(family: str, prog: Progression, size: int):
    """entry(n, m) of ``family`` by a route the CLI builder does not take."""
    d = prog.d
    if family == "s2":
        return lambda n, m: st.s2_explicit(prog, n, m)
    if family == "s2hat":
        return lambda n, m: st.s2_explicit(prog, n, m) / d**m
    if family == "s2fac":
        return lambda n, m: st.s2_explicit(prog, n, m) * math.factorial(m)
    if family == "s1phat":
        return lambda n, m: st.s1phat_from_sigma(prog, n, m)
    if family == "s1p":
        return lambda n, m: st.s1phat_from_sigma(prog, n, m) / d**n
    if family == "s1":
        return lambda n, m: (-1) ** (n - m) * st.s1phat_from_sigma(prog, n, m) / d**n
    if family == "reu":
        return lambda n, m: eul.reu_explicit(prog, n, m)
    if family == "lah":
        return lahmod.lah_four_term(prog, size).entry
    if family == "lahinv":
        return lahmod.lah_inverse_four_term(prog, size).entry
    raise ValueError(f"no oracle for family {family!r}")


def _sample_positions(argv: list[str], size: int) -> list[tuple[int, int]]:
    rng = random.Random(zlib.crc32(" ".join(argv).encode()))
    corners = [(0, 0), (size, 0), (size, size), (size, size // 2), (size, max(size - 1, 0))]
    picks = []
    for _ in range(_SAMPLES):
        n = rng.randint(0, size)
        picks.append((n, rng.randint(0, n)))
    return corners + picks


def _check_entries(family, prog, size, positions, entry_at) -> str:
    """Compare entry_at(n, m) with the oracle; entry_at returns None to skip."""
    oracle = _entry_oracle(family, prog, size)
    for n, m in positions:
        got = entry_at(n, m)
        if got is not None and got != oracle(n, m):
            return f"entry ({n},{m}) is {got}, expected {oracle(n, m)}"
    return ""


def _parse_triangle(argv: list[str], out: str) -> list[list[Fraction]]:
    fmt = option(argv, "--format", "pretty")
    if fmt == "json":
        payload = json.loads(out)
        expected_meta = [option(argv, "--family"), _int_opt(argv, "--d"), _int_opt(argv, "--a", 0)]
        if [payload["family"], payload["d"], payload["a"]] != expected_meta:
            raise ValueError(f"json metadata {payload['family'], payload['d'], payload['a']}")
        return [[Fraction(c) for c in row] for row in payload["rows"]]
    if fmt == "bfile":
        flat = _parse_bfile(out, 0)
        rows, start = [], 0
        while start < len(flat):
            rows.append(flat[start : start + len(rows) + 1])
            start += len(rows)
        return rows
    sep = " " if fmt == "pretty" else ","
    return [[Fraction(c) for c in line.split(sep)] for line in out.splitlines()]


def _parse_bfile(out: str, offset: int) -> list[Fraction]:
    values = []
    for i, line in enumerate(out.splitlines(), start=offset):
        index, value = line.split(" ")
        if int(index) != i:
            raise ValueError(f"b-file index {index} where {i} was due")
        values.append(Fraction(value))
    return values


def _check_triangle(argv: list[str], out: str) -> str:
    size = _int_opt(argv, "--rows")
    rows = _parse_triangle(argv, out)
    if [len(r) for r in rows] != list(range(1, size + 2)):
        return f"triangle shape {[len(r) for r in rows][:5]}... for rows={size}"
    prog = Progression(_int_opt(argv, "--d"), _int_opt(argv, "--a", 0))
    positions = _sample_positions(argv, size)
    family = option(argv, "--family")
    return _check_entries(family, prog, size, positions, lambda n, m: rows[n][m])


def _check_export_bfile(argv: list[str], out: str) -> str:
    count, offset = _int_opt(argv, "--count"), _int_opt(argv, "--offset", 0)
    values = _parse_bfile(out, offset)
    if len(values) != count:
        return f"{len(values)} b-file lines, expected {count}"
    size = 0
    while (size + 1) * (size + 2) // 2 < offset + count:
        size += 1

    def entry_at(n: int, m: int):
        i = n * (n + 1) // 2 + m - offset
        return values[i] if 0 <= i < count else None

    prog = Progression(_int_opt(argv, "--d"), _int_opt(argv, "--a", 0))
    # Corner and random samples outside the window are skipped; its two ends are not.
    positions = _sample_positions(argv, size) + [_row_col(offset), _row_col(offset + count - 1)]
    return _check_entries(option(argv, "--family"), prog, size, positions, entry_at)


def _row_col(i: int) -> tuple[int, int]:
    """Row and column of flat index i in row-major triangle order."""
    n = (math.isqrt(8 * i + 1) - 1) // 2
    return n, i - n * (n + 1) // 2


# -- verify ---------------------------------------------------------------------------


def _check_verify(argv: list[str], out: str) -> str:
    lines = out.splitlines()
    match = _SUMMARY.fullmatch(lines[-1]) if lines else None
    if not match:
        return "no summary line"
    total, ok, xfail, failed = (int(match.group(i)) for i in range(1, 5))
    if (match.group(5), match.group(6)) != (option(argv, "--suite"), option(argv, "--depth")):
        return f"summary names suite={match.group(5)}, depth={match.group(6)}"
    if failed:
        return f"{failed} checks failed"
    kinds = [line[:6] for line in lines[:-1]]
    if (kinds.count("ok    "), kinds.count("xfail "), ok + xfail) != (ok, xfail, total):
        return "per-check lines disagree with the summary"
    if (xfail > 0) != ("--include-printed-three-term" in argv):
        return f"{xfail} expected failures"
    return ""


_CHECKS = {
    "powersum": _check_powersum,
    "bernoulli": _check_bernoulli,
    "triangle": _check_triangle,
    "export-bfile": _check_export_bfile,
    "verify": _check_verify,
}


def check(argv: list[str], code: int, out: str) -> str:
    """'' when the response to ``argv`` is right, else the reason it is wrong."""
    if code != 0:
        return f"exit code {code}"
    try:
        return _CHECKS[argv[0]](argv, out)
    except Exception as exc:  # output the parsers cannot read is a wrong response
        return f"unreadable response: {type(exc).__name__}: {exc}"
