"""Tests of the benchmark itself.

Run from the root of a checkout:

    python3 -m unittest discover -s perfbench/tests -v

Each test runs workloads at their tiny size (--size tiny), so the whole
file takes about a minute once the benchmark binary is built (the
first run builds it). Every run checks its outputs against the
benchmark's references and exits non-zero on a mismatch.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest

PERFBENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(PERFBENCH)

WORKLOADS = ("chain_restricted_csv", "star_existential_snapshot", "decide_suite")

# Span layers whose self times, with job.unattributed_ms, make up a job.
SELF_TIME_METRICS = (
    "load.parse_ms", "load.open_ms", "load.seed_ms", "chase.execute_ms",
    "output.write_ms", "job.teardown_ms", "decide.tree_ms",
    "decide.random_ms", "decide.curated_ms", "job.unattributed_ms",
)


def run(workload, seed, trace, *extra, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "0.3", "--trace", str(trace),
         *extra],
        cwd=cwd, capture_output=True, text=True, timeout=900)


class PerfbenchTest(unittest.TestCase):

    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as spec:
            cls.spec = json.load(spec)

    def result(self, workload, seed, trace, *extra):
        done = run(workload, seed, trace, *extra)
        self.assertEqual(done.returncode, 0, done.stderr[-2000:])
        lines = done.stdout.strip().splitlines()
        self.assertTrue(lines, done.stderr[-2000:])
        result = json.loads(lines[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertIs(result["correct"], True)
        self.assertGreaterEqual(result["attempted"], 1)
        return result

    def test_every_named_metric_is_printed_with_its_unit(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(WORKLOADS))
        for workload in WORKLOADS:
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = self.result(workload, 1, trace, "--size", "tiny")
                    units = {m["name"]: m["unit"] for m in self.spec[key]}
                    printed = {name: metric["unit"]
                               for name, metric in result["metrics"].items()}
                    self.assertEqual(printed, units)
                    if trace == 0:
                        self.assertEqual(result["failed"], 0)
                        for name, metric in result["metrics"].items():
                            self.assertGreater(metric["value"], 0, name)

    def test_traced_self_times_sum_to_the_traced_job_median(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                metrics = self.result(workload, 2, 1, "--size", "tiny")["metrics"]
                ledger_ms = sum(metrics[name]["value"] for name in SELF_TIME_METRICS)
                job_ms = metrics["trace.job_s_p50"]["value"] * 1e3
                self.assertAlmostEqual(ledger_ms, job_ms, delta=1e-6 * job_ms)
                self.assertGreater(metrics["trace.untraced_job_s_p50"]["value"], 0)
                spans = os.path.join(ROOT, ".bench_build", "spans",
                                     "%s-seed2.jsonl" % workload)
                with open(spans) as lines:
                    first = json.loads(lines.readline())
                self.assertEqual(set(first), {"id", "parent", "job", "name",
                                              "call", "start_ns", "end_ns"})

    def test_other_seeds_meet_the_closed_forms(self):
        for workload in ("chain_restricted_csv", "star_existential_snapshot"):
            for seed in (7, 123456789):
                with self.subTest(workload=workload, seed=seed):
                    result = self.result(workload, seed, 1, "--size", "tiny")
                    self.assertEqual(result["failed"], 0)

    def test_closed_form_counters_at_the_tiny_size(self):
        # 4,096 chain rows: 4 seed + 4,092 edge rows, 4,093 touched and 4
        # reach atoms; 1 trigger per derived atom plus one duplicate
        # touched trigger per inner node, skipped as satisfied.
        metrics = self.result("chain_restricted_csv", 3, 1,
                              "--size", "tiny")["metrics"]
        self.assertEqual(metrics["chase.applied"]["value"], 4093 + 4)
        self.assertEqual(metrics["chase.nulls"]["value"], 0)
        # 8,192 star rows: 8 seed, 8,184 edge rows, 7 hubs, so 8,184
        # reach / tag / labelled atoms and 7 link atoms; one null each
        # for tag and link.
        metrics = self.result("star_existential_snapshot", 3, 1,
                              "--size", "tiny")["metrics"]
        self.assertEqual(metrics["chase.nulls"]["value"], 8184 + 7)

    def test_same_seed_same_inputs(self):
        counters = ("decide.chase_atoms", "decide.applied",
                    "decide.nonterminating", "decide.unknown")
        first, second = (self.result("decide_suite", 5, 1, "--size", "tiny")
                         for _ in range(2))
        for name in counters:
            self.assertEqual(first["metrics"][name], second["metrics"][name])

    def test_without_the_sources_it_fails_without_a_result(self):
        bare = os.path.join(ROOT, ".bench_build", "bare_checkout")
        shutil.rmtree(bare, ignore_errors=True)
        os.makedirs(bare)
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(PERFBENCH, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            done = run("decide_suite", 1, 0, cwd=bare)
            self.assertNotEqual(done.returncode, 0)
            self.assertNotIn('"correct"', done.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    unittest.main()
