#!/usr/bin/env python3
"""Tests of the benchmark itself (short runs; builds on first use).

    python3 perfbench/test_perfbench.py        # from the repository root
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
RUN = os.path.join(HERE, "run.py")

with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
    SPEC = json.load(f)
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
UDP_WORKLOADS = [w for w in WORKLOADS if w.endswith("_udp")]


def bench(workload, seed="7", seconds="1", trace="0", extra=()):
    proc = subprocess.run([sys.executable, RUN, "--workload", workload, "--seed", seed,
                           "--seconds", seconds, "--trace", trace, *extra],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.strip().split("\n")[-1])


class ContractTest(unittest.TestCase):
    def test_metric_names_and_units_match_benchmark_json(self):
        for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
            expected = {m["name"]: m["unit"] for m in SPEC[key]}
            for workload in WORKLOADS:
                with self.subTest(workload=workload, trace=trace):
                    metrics = result_of(bench(workload, trace=trace))["metrics"]
                    self.assertEqual(set(metrics), set(expected))
                    for name, m in metrics.items():
                        self.assertEqual(m["unit"], expected[name], name)
                        self.assertIsInstance(m["value"], (int, float))

    def test_smoke_run_passes_correctness_gate(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                r = result_of(bench(workload))
                self.assertTrue(r["correct"])
                self.assertEqual(r["failed"], 0)
                self.assertGreater(r["attempted"], 0)
                for name in ("calls_per_s", "setup_s", "peak_rss_mb"):
                    self.assertGreater(r["metrics"][name]["value"], 0, name)

    def test_usage_errors(self):
        bad = [
            ("write_ordered_sim", "-1"),
            ("write_ordered_sim", "abc"),
            ("write_ordered_sim", "1.5"),
            ("no_such_workload", "1"),
        ]
        for workload, seed in bad:
            with self.subTest(workload=workload, seed=seed):
                proc = bench(workload, seed=seed)
                self.assertEqual(proc.returncode, 2)
                self.assertNotIn("metrics", proc.stdout)
        proc = bench("read_fanout_udp", seconds="0")
        self.assertEqual(proc.returncode, 2)
        proc = bench("read_fanout_udp", trace="2")
        self.assertEqual(proc.returncode, 2)

    def test_same_seed_gives_identical_virtual_latency(self):
        a = result_of(bench("write_ordered_sim", seed="5"))["metrics"]
        b = result_of(bench("write_ordered_sim", seed="5"))["metrics"]
        for name in ("vlatency_p50_us", "vlatency_p99_us"):
            self.assertEqual(a[name]["value"], b[name]["value"], name)


class CorrectnessGateTest(unittest.TestCase):
    def test_corrupted_echo_fails_the_run(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                r = result_of(bench(workload, extra=("--corrupt-echo",)))
                self.assertFalse(r["correct"])
                self.assertGreaterEqual(r["failed"], 1)


class TracedRunTest(unittest.TestCase):
    def test_traced_run_writes_spans(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                r = result_of(bench(workload, trace="1"))
                self.assertTrue(r["correct"])
                with open(os.path.join(ROOT, ".bench_build", "traces", f"{workload}.json")) as f:
                    names = {e["name"] for e in json.load(f)["traceEvents"]}
                self.assertIn("call", names)
                self.assertIn("server.procedure", names)
                self.assertIn("probe.runtime.trigger", names)
                loop = "net.poll_once" if workload in UDP_WORKLOADS else "sim.step_batch"
                self.assertIn(loop, names)

    def test_poll_once_covers_udp_wall_time(self):
        for workload in UDP_WORKLOADS:
            with self.subTest(workload=workload):
                m = result_of(bench(workload, trace="1"))["metrics"]
                self.assertGreaterEqual(m["net.poll_wall_share"]["value"], 0.95)


if __name__ == "__main__":
    unittest.main()
