#!/usr/bin/env python3
"""Benchmark for apsums: seeded CLI workloads replayed in-process, checked, timed.

    python3 bench/run.py --workload triangles|powersums|verify --seed N --seconds S --trace 0|1

Run it from anywhere inside a checkout; it imports the package from the
checkout's ``src`` and exits 2 without a result when that is missing.
The load is a closed loop with one client: the request list of the
workload (generated from the seed) is sent through ``apsums.cli.main``,
each request only after the previous one returned, pass after pass until
``--seconds`` have elapsed.  Every response is checked: the first time by
an oracle that does not share the timed code path (see ``oracle.py``),
later passes by comparing a digest of the output with the checked one.

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the per-layer
metrics of a separate traced run (see ``tracing.py``).  A summary table
goes to stderr; the last line of stdout is the JSON result.  See
README.md for the metrics and what each workload is for.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_PAIRS = 40  # interpreter starts per run, spread evenly over it
BARE_START_SECONDS = 0.036  # the fastest bare interpreter start on the baseline host
TAIL_ABOVE = 10  # the tail is the highest percentile with this many samples above it

E2E_UNITS = {"wall_ref": "ref", "req_p50_ref": "ref", "req_tail_mean_ref": "ref",
             "peak_rss_mb": "MB", "setup_s": "s"}


def load_cli():
    """apsums.cli.main from this checkout's src, never from an installed copy."""
    if not (SRC / "apsums" / "cli.py").is_file():
        print(f"error: {SRC / 'apsums'} not found; run from a full checkout", file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import apsums.cli

    if Path(apsums.cli.__file__).resolve().parent != SRC / "apsums":
        print(f"error: imported apsums from {apsums.cli.__file__}, not {SRC}", file=sys.stderr)
        raise SystemExit(2)
    return apsums.cli.main


def execute(main, argv: list[str]) -> tuple[int | None, str, float]:
    """One CLI request with stdout/stderr captured: (exit code, stdout, seconds)."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdout, sys.stderr
    sys.stdout, sys.stderr = out, err
    start = perf_counter()
    try:
        code = main(list(argv))
    except Exception as exc:  # a crash is a failed request, not a benchmark crash
        code = None
        err.write(f"{type(exc).__name__}: {exc}\n")
    finally:
        elapsed = perf_counter() - start
        sys.stdout, sys.stderr = saved
    return code, out.getvalue(), elapsed


def _digest(code, out: str) -> bytes:
    return hashlib.blake2b(f"{code}\n{out}".encode(), digest_size=16).digest()


class Runner:
    """Replays one request list through ``main`` and checks every response."""

    def __init__(self, main, requests: list[list[str]]):
        import oracle  # imports the package, so only after load_cli()

        self.main = main
        self.check = oracle.check
        self.requests = requests
        self.checked: dict[int, bytes] = {}  # request index -> digest of an accepted response
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def run_pass(self, instrument=None, between=None) -> tuple[list[float], list[float]]:
        """One pass over the list: per-request latencies in seconds, and the
        same latencies in reference units (see ``reference_seconds``).

        ``instrument`` (a Tracer or FractionCounter) is installed for the
        requests only, never while an oracle runs; instrumented passes time
        no reference, and their second list is empty.  ``between`` is called
        after each request, outside its timing.
        """
        latencies, relative = [], []
        if instrument is not None:
            instrument.install()
        try:
            for i, argv in enumerate(self.requests):
                before = reference_seconds() if instrument is None else 0.0
                code, out, seconds = execute(self.main, argv)
                latencies.append(seconds)
                if instrument is None:
                    relative.append(2 * seconds / (before + reference_seconds()))
                self.attempted += 1
                digest = _digest(code, out)
                if self.checked.get(i) == digest:
                    continue
                if instrument is not None:
                    instrument.uninstall()
                reason = self.check(argv, code, out)
                if instrument is not None:
                    instrument.install()
                if reason:
                    self.failed += 1
                    self.failures.append(f"{' '.join(argv)}: {reason}")
                else:
                    self.checked[i] = digest
                if between is not None:
                    between()
        finally:
            if instrument is not None:
                instrument.uninstall()
        return latencies, relative


def reference_seconds() -> float:
    """The faster of two runs of a fixed Fraction computation (a 400-term
    harmonic sum, about 1 ms).

    The shared host's speed swings by 30-50% within seconds and over
    minutes, on both vCPUs at once.  A request's latency divided by the
    mean of the reference times just before and after it is its cost in
    reference units, which those swings cancel out of.
    """
    best = float("inf")
    for _ in range(2):
        start = perf_counter()
        total = Fraction(0)
        for i in range(1, 400):
            total += Fraction(1, i)
        best = min(best, perf_counter() - start)
    return best


class SetupSampler:
    """Start times of fresh interpreters, taken in pairs spread evenly over a run.

    A pair is a bare start (``pass``) and then a start that imports
    ``apsums.cli``, which every CLI call pays.  The host's speed swings by
    30-50% for seconds at a time, so the pairs are spread over the whole run
    (called between requests) and each side takes its fastest start: the
    time of an undisturbed one.  Slow spells can also last longer than a
    run, and they slow both kinds of start alike, so the start with the
    import is reported in seconds at the baseline host's speed: scaled by
    BARE_START_SECONDS / the fastest bare start.  The interpreter is not
    part of the package, so only a change in the import's cost moves it.
    Bytecode caching is as for an installed package; one warm-up pair
    writes the cache.
    """

    def __init__(self, seconds: float):
        self.env = {**os.environ, "PYTHONPATH": str(SRC)}
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.interval = seconds / SETUP_PAIRS
        self.bare: list[float] = []
        self.package: list[float] = []
        self._spawn("pass")
        self._spawn("import apsums.cli")
        self.start = perf_counter()

    def _spawn(self, code: str) -> float:
        start = perf_counter()
        subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=self.env, check=True,
                       stdin=subprocess.DEVNULL, stdout=subprocess.DEVNULL)
        return perf_counter() - start

    def _pair(self) -> None:
        self.bare.append(self._spawn("pass"))
        self.package.append(self._spawn("import apsums.cli"))

    def __call__(self) -> None:
        """Take the next pair if its time has come."""
        due = self.start + len(self.bare) * self.interval
        if len(self.bare) < SETUP_PAIRS and perf_counter() >= due:
            self._pair()

    def finish(self) -> tuple[float, float]:
        """(fastest bare start, start with the import at the baseline host's
        speed) in seconds, after topping up to SETUP_PAIRS pairs."""
        while len(self.bare) < SETUP_PAIRS:
            self._pair()
        return min(self.bare), min(self.package) * BARE_START_SECONDS / min(self.bare)


def tail(costs: list[float]) -> tuple[float, float]:
    """(value, percentile): the mean of the costs at or above the highest
    percentile that has TAIL_ABOVE costs above it.

    The mean of those TAIL_ABOVE + 1 costs, rather than the one cost at that
    percentile, because neighbouring requests there can differ by 20%, so
    the single value jumps with the seed's jitter and the host's noise.
    """
    ordered = sorted(costs)
    index = max(len(ordered) - 1 - TAIL_ABOVE, 0)
    return statistics.fmean(ordered[index:]), 100.0 * index / max(len(ordered) - 1, 1)


def request_latencies(passes: list[list[float]]) -> list[float]:
    """Each request's latency: its median over the passes."""
    return [statistics.median(column) for column in zip(*passes)]


def measure(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """End-to-end metrics of untraced passes, plus notes for the summary."""
    sampler = SetupSampler(seconds)
    passes, relative = [], []
    deadline = perf_counter() + seconds
    while True:
        latencies, in_refs = runner.run_pass(between=sampler)
        passes.append(latencies)
        relative.append(in_refs)
        if perf_counter() >= deadline:
            break
    setup = sampler.finish()[1]
    costs = request_latencies(relative)
    tail_ref, tail_pct = tail(costs)
    metrics = {
        "wall_ref": sum(costs),
        "req_p50_ref": statistics.median(costs),
        "req_tail_mean_ref": tail_ref,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "setup_s": setup,
    }
    latencies = request_latencies(passes)
    notes = {"passes": len(passes), "tail_percentile": round(tail_pct, 2),
             "tail_samples": len(costs),
             "failed_frac": runner.failed / runner.attempted,
             "wall_s": sum(latencies),
             "req_p50_ms": 1000 * statistics.median(latencies),
             "req_tail_mean_ms": 1000 * tail(latencies)[0],
             "setup_unscaled_s": min(sampler.package)}
    return metrics, notes


def measure_traced(runner: Runner, seconds: float) -> tuple[dict, dict]:
    """Per-layer metrics: traced passes alternate with untraced ones, then one counting pass."""
    from tracing import FractionCounter, Tracer

    sampler = SetupSampler(seconds)
    tracer = Tracer()
    untraced, traced, timings, counts = [], [], [], []
    deadline = perf_counter() + seconds
    while True:
        untraced.append(sum(runner.run_pass(between=sampler)[0]))
        tracer.reset()
        traced.append(sum(runner.run_pass(tracer)[0]))
        timings.append(tracer.timings())
        counts.append(tracer.counts())
        if perf_counter() >= deadline:
            break
    interpreter, with_import = sampler.finish()
    counter = FractionCounter()
    runner.run_pass(counter)
    metrics = {name: statistics.median(t[name] for t in timings) for name in timings[0]}
    metrics.update(counts[0])
    metrics.update({
        "scalar.fraction_ops": counter.ops,
        "scalar.fraction_new": counter.new,
        "setup.interpreter_s": interpreter,
        "setup.package_s": with_import - BARE_START_SECONDS,
        "trace.overhead_ratio": statistics.median(traced) / statistics.median(untraced) - 1,
    })
    notes = {"passes": len(traced), "counts_repeat": all(c == counts[0] for c in counts)}
    return metrics, notes


def unit_of(name: str) -> str:
    if name in E2E_UNITS:
        return E2E_UNITS[name]
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    runner = Runner(load_cli(), workloads.generate(args.workload, args.seed))
    props = workloads.properties(args.workload, args.seed, runner.requests)
    if args.trace:
        metrics, notes = measure_traced(runner, args.seconds)
    else:
        metrics, notes = measure(runner, args.seconds)

    for failure in runner.failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print(f"# {json.dumps(props)} {json.dumps(notes)}", file=sys.stderr)
    for name, value in metrics.items():
        print(f"{name:<40} {value:>16.6g} {unit_of(name)}", file=sys.stderr)
    if not args.trace:
        for name, unit in (("wall_s", "s"), ("req_p50_ms", "ms"), ("req_tail_mean_ms", "ms"),
                           ("failed_frac", "ratio"), ("setup_unscaled_s", "s")):
            print(f"{name:<40} {notes[name]:>16.6g} {unit}", file=sys.stderr)
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit_of(name)}
                    for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
