"""Seeded request lists for the three benchmark workloads.

Each generator takes the seed and returns a list of CLI argv lists; the
program under test only ever sees those argv lists.  The generators are
stratified: every seed draws the same ladder of sizes per family or route
and varies only the parameters that barely change the cost (d, a, format,
pairing, order).  A uniform draw of sizes would let the few O(N^3)
requests at the top of each ladder move the total work by tens of percent
from one seed to the next, which would drown the effects the benchmark is
meant to show.  The heaviest rungs of each ladder are *anchors* with d and
a fixed for every seed, so the slowest requests, which set the tail
latency, are the same on every run.

Every request stays inside the input limits planned for the CLI: rows <=
64, verify depth <= 8, b-file counts (offset included) <= 2000, power-sum
n <= 60 and m <= 5000, Bernoulli indices <= 60.
"""

from __future__ import annotations

import random

FAMILIES = ("s2", "s2hat", "s2fac", "s1", "s1p", "s1phat", "reu", "lah", "lahinv")
# Families whose entries are fractions for d >= 2; b-file output needs --rational.
FRACTIONAL = frozenset({"s1", "s1p"})
# Families built through O(N^3) triangle products or Sheffer materialization.
HEAVY = frozenset({"s1", "s1p", "lah", "lahinv"})
FORMATS = ("pretty", "csv", "json", "bfile")
SUITES = ("fps", "s2", "s1", "eulerian", "bernoulli", "faulhaber", "lah", "symfunc")
ROUTES = ("direct", "ordinary", "faulhaber")

# Triangle rows per family; the top _ANCHORS rungs of each ladder are anchors.
_LIGHT_ROWS = (8, 10, 12, 14, 16, 20, 24, 28, 32, 40, 48, 64)
_HEAVY_ROWS = (8, 10, 11, 12, 14, 16, 18, 20, 24, 28, 36, 64)
# export-bfile line counts per family.
_LIGHT_COUNTS = (200, 300, 450, 700, 1000, 2000)
_HEAVY_COUNTS = (200, 250, 300, 400, 550, 1000)
_ANCHORS = 2
_ANCHOR_D, _ANCHOR_A = 3, 2

# powersum --all-methods m rungs; n cycles through 0..12 along the ladder, so
# every n meets small and large m.  The o.g.f. routes cost about n*m^2, hence
# the short ladder plus one anchor at the n, m limits.
_ALL_METHODS_M = (
    2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 11, 11, 12, 12,
    13, 13, 14, 14, 15, 15, 16, 16, 17, 17, 18, 18, 19, 19, 20, 20, 21, 21,
    22, 22, 23, 24, 25, 26, 27, 28, 29, 30, 31, 32, 33, 34, 35, 36, 37, 38,
    39, 40, 42, 44, 46, 48, 50,
)
_ALL_METHODS_ANCHOR = (12, 120)
# The top rungs take fixed d and a too: with the anchors above they are the
# dozen slowest requests of the workload, which set its tail latency.
_ALL_METHODS_TOP = 12
# Single-route (n, m) rungs, paired by rank so large n meets large m; the top
# _ANCHORS rungs are anchors.
_SINGLE = ((1, 10), (3, 40), (6, 90), (10, 160), (14, 260), (19, 400),
           (24, 600), (30, 900), (37, 1400), (45, 2100), (52, 3200), (60, 5000))
# bernoulli (kind, index) rungs: --count N emits n = 0..N-1, --poly n one polynomial.
_BERNOULLI = (("count", 6), ("count", 12), ("count", 20), ("count", 30),
              ("count", 45), ("count", 60), ("poly", 5), ("poly", 10),
              ("poly", 20), ("poly", 30), ("poly", 45), ("poly", 60))

# Depths 4-6 would stretch one pass to about 17 s (2-vCPU x86 host, Python
# 3.11), too long for the several passes per run that keep the figures steady.
VERIFY_DEPTHS = (1, 2, 3)


def _balanced(rng: random.Random, values, count: int) -> list:
    """``count`` draws in which every value appears equally often (+-1)."""
    out: list = []
    while len(out) < count:
        block = list(values)
        rng.shuffle(block)
        out.extend(block)
    return out[:count]


def _triangles(rng: random.Random) -> list[list[str]]:
    requests = []
    for family in FAMILIES:
        heavy = family in HEAVY
        rows_ladder = _HEAVY_ROWS if heavy else _LIGHT_ROWS
        count_ladder = _HEAVY_COUNTS if heavy else _LIGHT_COUNTS
        slots = len(rows_ladder) + len(count_ladder)
        ds = _balanced(rng, range(1, 6), slots)
        avals = _balanced(rng, range(0, 5), slots)
        formats = _balanced(rng, FORMATS, len(rows_ladder))
        for i, rows in enumerate(rows_ladder):
            d, a = (ds[i], avals[i]) if i < len(rows_ladder) - _ANCHORS else (_ANCHOR_D, _ANCHOR_A)
            argv = ["triangle", "--family", family, "--d", str(d), "--a", str(a),
                    "--rows", str(rows), "--format", formats[i]]
            if formats[i] == "bfile" and family in FRACTIONAL:
                argv.append("--rational")
            requests.append(argv)
        for j, count in enumerate(count_ladder):
            i = len(rows_ladder) + j
            if j < len(count_ladder) - _ANCHORS:
                d, a, offset = ds[i], avals[i], rng.choice((0, 0, 1, 5, 12, 30))
            else:
                d, a, offset = _ANCHOR_D, _ANCHOR_A, 0
            argv = ["export-bfile", "--family", family, "--d", str(d), "--a", str(a),
                    "--count", str(count), "--offset", str(offset)]
            if family in FRACTIONAL:
                argv.append("--rational")
            requests.append(argv)
    rng.shuffle(requests)
    return requests


def _powersums(rng: random.Random) -> list[list[str]]:
    requests = []
    ds = _balanced(rng, range(1, 6), len(_ALL_METHODS_M))
    avals = _balanced(rng, range(0, 5), len(_ALL_METHODS_M))
    for i, m in enumerate(_ALL_METHODS_M):
        top = i >= len(_ALL_METHODS_M) - _ALL_METHODS_TOP
        d, a = (_ANCHOR_D, _ANCHOR_A) if top else (ds[i], avals[i])
        requests.append(["powersum", "--d", str(d), "--a", str(a),
                         "--n", str(i % 13), "--m", str(m), "--all-methods"])
    n, m = _ALL_METHODS_ANCHOR
    requests.append(["powersum", "--d", str(_ANCHOR_D), "--a", str(_ANCHOR_A), "--n", str(n),
                     "--m", str(m), "--all-methods"])
    for route in ROUTES:
        ds = _balanced(rng, range(1, 6), len(_SINGLE))
        avals = _balanced(rng, range(0, 5), len(_SINGLE))
        for i, (n, m) in enumerate(_SINGLE):
            if i < len(_SINGLE) - _ANCHORS:
                d, a = ds[i], avals[i]
                m = max(1, m + rng.randint(-m // 20, m // 20))
            else:
                d, a = _ANCHOR_D, _ANCHOR_A
            requests.append(["powersum", "--d", str(d), "--a", str(a), "--n", str(n),
                             "--m", str(m), "--method", route])
    ds = _balanced(rng, range(1, 6), 2 * len(_BERNOULLI))
    avals = _balanced(rng, range(0, 5), len(_BERNOULLI))
    for i, (kind, index) in enumerate(_BERNOULLI):
        # Without --a every rung is cheap; with --a only the smaller half of
        # each kind, since B(d,a;n) rebuilds B(0..n) for every n (cubic cost).
        requests.append(["bernoulli", "--d", str(ds[2 * i]), f"--{kind}", str(index)])
        if index <= 30:
            requests.append(["bernoulli", "--d", str(ds[2 * i + 1]), "--a", str(avals[i]),
                             f"--{kind}", str(index)])
    rng.shuffle(requests)
    return requests


def _verify(rng: random.Random) -> list[list[str]]:
    requests = []
    for suite in SUITES:
        for depth in VERIFY_DEPTHS:
            argv = ["verify", "--suite", suite, "--depth", str(depth), "--explain"]
            if suite == "lah":
                argv.append("--include-printed-three-term")
            requests.append(argv)
    rng.shuffle(requests)
    return requests


GENERATORS = {"triangles": _triangles, "powersums": _powersums, "verify": _verify}

def generate(workload: str, seed: int) -> list[list[str]]:
    """The argv list of one pass of ``workload``; the same seed gives the same list."""
    return GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def option(argv: list[str], flag: str, default: str | None = None) -> str | None:
    """The value given to ``flag`` in ``argv``, or ``default``."""
    return argv[argv.index(flag) + 1] if flag in argv else default


def request_key(argv: list[str]) -> tuple:
    """(command, family, d, a); the suite stands in for the family of verify."""
    family = option(argv, "--family") or option(argv, "--suite")
    return (argv[0], family, option(argv, "--d"), option(argv, "--a"))


def properties(workload: str, seed: int, requests: list[list[str]]) -> dict:
    """Input properties that caching or integer-kernel claims can name."""
    seen: set = set()
    repeats = 0
    for argv in requests:
        key = request_key(argv)
        repeats += key in seen
        seen.add(key)
    fractional = sum(option(argv, "--family") in FRACTIONAL for argv in requests)
    return {
        "workload": workload,
        "seed": seed,
        "requests": len(requests),
        "repeat_key_share": repeats / len(requests),
        "fractional_share": fractional / len(requests),
    }
