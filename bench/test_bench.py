"""Self-tests for the benchmark harness (standard library only).

    python3 -m unittest discover -s bench -p 'test_*.py'
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import subprocess
import sys
import unittest
from fractions import Fraction
from pathlib import Path
from unittest import mock

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

MAIN = run.load_cli()  # puts the checkout's src on the path for the imports below

import oracle  # noqa: E402
from tracing import FractionCounter, Tracer  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())

# Runs a few requests of every workload through a traced and a counting pass
# and prints the counts; two interpreters with different hash seeds must agree.
_COUNTS_SCRIPT = f"""
import json, sys
sys.path.insert(0, {str(HERE)!r})
import run, workloads
from tracing import FractionCounter, Tracer
main = run.load_cli()
out = {{}}
for name in workloads.GENERATORS:
    runner = run.Runner(main, workloads.generate(name, 3)[:5])
    runner.run_pass()
    tracer, counter = Tracer(), FractionCounter()
    runner.run_pass(tracer)
    runner.run_pass(counter)
    out[name] = [tracer.counts(), counter.ops, counter.new, runner.failed]
print(json.dumps(out, sort_keys=True))
"""


def _corrupt(argv):
    """The CLI's response with its last digit changed."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = MAIN(argv)
    text = out.getvalue()
    i = max(text.rfind(digit) for digit in "0123456789")
    sys.stdout.write(text[:i] + str((int(text[i]) + 1) % 10) + text[i + 1:])
    return code


def _opt(argv, flag):
    return int(workloads.option(argv, flag, "0"))


class WorkloadTests(unittest.TestCase):
    def test_same_seed_gives_same_argv_list(self):
        for name in workloads.GENERATORS:
            self.assertEqual(workloads.generate(name, 11), workloads.generate(name, 11))
            self.assertNotEqual(workloads.generate(name, 11), workloads.generate(name, 12))

    def test_requests_stay_inside_the_planned_input_limits(self):
        for name in workloads.GENERATORS:
            for seed in range(1, 6):
                for argv in workloads.generate(name, seed):
                    with self.subTest(argv=argv):
                        self.assertLessEqual(_opt(argv, "--rows"), 64)
                        self.assertLessEqual(_opt(argv, "--depth"), 8)
                        self.assertLessEqual(_opt(argv, "--count") + _opt(argv, "--offset"), 2000)
                        self.assertLessEqual(_opt(argv, "--n"), 60)
                        self.assertLessEqual(_opt(argv, "--m"), 5000)
                        self.assertLessEqual(_opt(argv, "--poly"), 60)
                        bfile = argv[0] == "export-bfile" or "bfile" in argv
                        if bfile and set(argv) & workloads.FRACTIONAL:
                            self.assertIn("--rational", argv)

    def test_workload_names_match_benchmark_json(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(workloads.GENERATORS))


class OracleTests(unittest.TestCase):
    def test_bernoulli_numbers_match_the_classical_table(self):
        table = [1, Fraction(-1, 2), Fraction(1, 6), 0, Fraction(-1, 30), 0, Fraction(1, 42)]
        self.assertEqual(list(oracle.bernoulli_numbers(6)), table)

    def test_every_request_passes_its_oracle_at_a_small_size(self):
        for name in workloads.GENERATORS:
            runner = run.Runner(MAIN, workloads.generate(name, 2)[:8])
            runner.run_pass()
            self.assertEqual(runner.failures, [])

    def test_corrupted_response_counts_as_failed(self):
        requests = workloads.generate("powersums", 4)[:6]
        runner = run.Runner(lambda argv: _corrupt(argv) if argv == requests[2] else MAIN(argv),
                            requests)
        runner.run_pass()
        self.assertEqual((runner.attempted, runner.failed), (6, 1))

    def test_malformed_response_is_rejected_not_raised(self):
        argv = ["powersum", "--d", "1", "--a", "0", "--n", "1", "--m", "2", "--all-methods"]
        self.assertTrue(oracle.check(argv, 0, "direct 3\n\n"))
        self.assertTrue(oracle.check(["triangle", "--family", "s2", "--d", "1", "--rows", "2",
                                      "--format", "json"], 0, "{}"))

    def test_response_that_changes_after_its_check_counts_as_failed(self):
        runner = run.Runner(MAIN, workloads.generate("triangles", 4)[:4])
        runner.run_pass()
        runner.main = _corrupt
        runner.run_pass()
        self.assertEqual((runner.attempted, runner.failed), (8, 4))


class MetricTests(unittest.TestCase):
    def _run_main(self, trace: int) -> dict:
        short = workloads.generate("powersums", 1)[:4]
        out = io.StringIO()
        with mock.patch.object(workloads, "generate", lambda name, seed: short), \
                contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            self.assertEqual(run.main(["--workload", "powersums", "--seed", "1",
                                       "--seconds", "0", "--trace", str(trace)]), 0)
        return json.loads(out.getvalue().splitlines()[-1])

    def test_every_named_metric_is_printed_with_its_unit(self):
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            result = self._run_main(trace)
            self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(result["correct"])
            printed = {k: v["unit"] for k, v in result["metrics"].items()}
            self.assertEqual(printed, {m["name"]: m["unit"] for m in SPEC[section]})
            for value in result["metrics"].values():
                self.assertIsInstance(value["value"], (int, float))

    def test_tail_is_the_mean_from_the_highest_percentile_with_ten_samples_above(self):
        value, percentile = run.tail([float(i) for i in range(100)])
        self.assertEqual(value, 94.0)
        self.assertAlmostEqual(percentile, 100 * 89 / 99)

    def test_counts_repeat_exactly_across_two_traced_runs(self):
        outputs = []
        for hash_seed in ("1", "2"):
            proc = subprocess.run([sys.executable, "-c", _COUNTS_SCRIPT], capture_output=True,
                                  text=True, timeout=300, check=True,
                                  env={**os.environ, "PYTHONHASHSEED": hash_seed})
            outputs.append(json.loads(proc.stdout))
        self.assertEqual(outputs[0], outputs[1])
        for counts, ops, new, failed in outputs[0].values():
            self.assertEqual(failed, 0)
            self.assertGreater(ops, 0)
            self.assertGreater(counts["cli.calls"], 0)


class TracingTests(unittest.TestCase):
    def test_wrappers_reach_imported_names_and_registries_and_are_removed(self):
        import apsums.cli as cli
        import apsums.powersum as powersum
        import apsums.stirling as stirling
        from apsums.fps import Fps

        originals = (stirling.s2_triangle, Fps.__dict__["__mul__"], Fps.__dict__["__rmul__"])
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(powersum.s2_triangle, originals[0])
            self.assertIsNot(cli.FAMILY_BUILDERS["s2"], originals[0])
            self.assertIs(Fps.__dict__["__mul__"], Fps.__dict__["__rmul__"])
            run.execute(MAIN, ["powersum", "--d", "2", "--a", "1", "--n", "3", "--m", "4",
                               "--all-methods"])
        finally:
            tracer.uninstall()
        self.assertEqual((stirling.s2_triangle, Fps.__dict__["__mul__"], Fps.__dict__["__rmul__"]),
                         originals)
        self.assertIs(powersum.s2_triangle, originals[0])
        self.assertIs(cli.FAMILY_BUILDERS["s2"], originals[0])
        counts = tracer.counts()
        self.assertEqual(counts["cli.calls"], 1)
        self.assertGreater(counts["stirling.s2_triangle_calls"], 0)
        self.assertGreater(tracer.timings()["powersum.route.ogf_stacked_s"], 0)

    def test_fraction_counter_counts_and_restores(self):
        saved = dict(Fraction.__dict__)
        counter = FractionCounter()
        counter.install()
        try:
            Fraction(1, 3) + Fraction(1, 6)
        finally:
            counter.uninstall()
        self.assertEqual(counter.ops, 1)
        self.assertGreaterEqual(counter.new, 3)
        self.assertEqual(dict(Fraction.__dict__), saved)


if __name__ == "__main__":
    unittest.main()
