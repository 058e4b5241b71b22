#!/usr/bin/env python3
"""Repeat the benchmark over several seeds and summarize each metric.

    python3 bench/baseline.py --runs 10 [--workloads triangles,verify] [--first-seed 1]
                              [--trace-runs 2] [--write bench/baseline.json [--add-set]]

Each run is ``bench/run.py`` in a fresh process with its own seed and the
``run_seconds`` of BENCHMARK.json.  For every end-to-end metric the table
gives the median, the quartiles (``statistics.quantiles(values, n=4)``) and
their distance as a share of the median, next to a third of the metric's
bound: a spread above that mark means the benchmark is not yet steady
enough to hold the bound.  ``--trace-runs`` adds traced runs on the first
seed and reports whether their counts repeat exactly.

``--write`` records the set of runs with the machine facts as the baseline.
With ``--add-set`` the set is added to the sets already in that file, and
each metric's median is compared with the first set's: the change, as a
share of the first median, must stay within the metric's bound for two
sets of the same code to agree.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from datetime import datetime, timezone
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402

COUNT_SUFFIXES = (".calls", "_calls", "_useful_ratio", ".checks")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else values * 3
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else 0.0, "values": values}


def is_count(name: str) -> bool:
    return name.startswith("scalar.") or name.endswith(COUNT_SUFFIXES)


def machine() -> dict:
    model = ""
    try:
        with open("/proc/cpuinfo") as info:
            model = next((line.split(":", 1)[1].strip() for line in info
                          if line.startswith("model name")), "")
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = "unknown"
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": model, "platform": platform.platform(), "git_sha": sha}


def run_set(workloads_: list[str], seeds: list[int], seconds: int, trace_runs: int,
            bounds: dict) -> dict:
    """Untraced runs of every workload on every seed (plus traced runs on the
    first seed), summarized per workload."""
    report = {}
    for workload in workloads_:
        results = [run_once(workload, seed, seconds, 0) for seed in seeds]
        entry = {"seeds": seeds, "failed": sum(r["failed"] for r in results),
                 "attempted": sum(r["attempted"] for r in results),
                 "properties": [workloads.properties(workload, seed,
                                                     workloads.generate(workload, seed))
                                for seed in seeds],
                 "end_to_end": {}}
        print(f"{workload}: {entry['failed']} failed of {entry['attempted']}")
        for name in results[0]["metrics"]:
            stats = summarize([r["metrics"][name]["value"] for r in results])
            entry["end_to_end"][name] = stats
            mark = bounds[name] / 3
            flag = "" if stats["spread"] < mark else "  <-- above bound/3"
            print(f"  {name:<17} median {stats['median']:10.4g}  q1 {stats['q1']:10.4g}  "
                  f"q3 {stats['q3']:10.4g}  spread {stats['spread']:6.3f}  "
                  f"bound/3 {mark:.3f}{flag}")
            print("    runs: " + " ".join(f"{v:.4g}" for v in stats["values"]))
        if trace_runs:
            traced = [run_once(workload, seeds[0], seconds, 1) for _ in range(trace_runs)]
            counts = [{k: v["value"] for k, v in t["metrics"].items() if is_count(k)}
                      for t in traced]
            entry["per_layer"] = {k: v["value"] for k, v in traced[0]["metrics"].items()}
            entry["counts_repeat"] = all(c == counts[0] for c in counts)
            print(f"  traced runs: counts repeat exactly: {entry['counts_repeat']}")
        report[workload] = entry
    return report


def drift(first: dict, later: dict, bounds: dict) -> dict:
    """Each metric's median in ``later`` against ``first``, per workload."""
    out = {}
    for workload, entry in later.items():
        if workload not in first:
            continue
        out[workload] = {}
        for name, stats in entry["end_to_end"].items():
            base = first[workload]["end_to_end"][name]["median"]
            change = stats["median"] / base - 1
            out[workload][name] = {"medians": [base, stats["median"]], "change": change,
                                   "bound": bounds[name]}
            flag = "" if change <= bounds[name] else "  <-- worse by more than the bound"
            print(f"{workload:<10} {name:<17} first {base:10.4g}  this {stats['median']:10.4g}"
                  f"  change {change:+.3f}  bound {bounds[name]}{flag}")
    return out


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--trace-runs", type=int, default=0)
    parser.add_argument("--write", type=Path)
    parser.add_argument("--add-set", action="store_true")
    args = parser.parse_args()
    if args.add_set and not args.write:
        parser.error("--add-set needs --write")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seconds = spec["run_seconds"]
    seeds = list(range(args.first_seed, args.first_seed + args.runs))
    started = datetime.now(timezone.utc).isoformat(timespec="seconds")
    this_set = {"started": started, "first_seed": args.first_seed, "runs": args.runs,
                "workloads": run_set(args.workloads.split(","), seeds, seconds,
                                     args.trace_runs, bounds)}
    if args.add_set:
        report = json.loads(args.write.read_text())
        report["sets"].append(this_set)
        report["drift"] = [drift(report["sets"][0]["workloads"], later["workloads"], bounds)
                           for later in report["sets"][1:]]
    else:
        report = {"machine": machine(), "run_seconds": seconds, "sets": [this_set]}
    if args.write:
        args.write.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
