#!/usr/bin/env python3
"""The benchmark's own tests.

    python3 perfbench/test_perfbench.py

Builds the benchmark program (as run.py does), then:
  * runs every workload at tiny size, untraced and traced, and checks that
    the result line carries exactly the metrics BENCHMARK.json declares, each
    with its declared unit, and that every correctness check passes;
  * re-runs with each correctness check's input deliberately corrupted and
    checks that the run is then reported incorrect with every operation
    failed;
  * checks that keepalive_small at the fig9 seed reproduces bench/ext_perf.
"""
import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402

CHECKS = ("channel_law", "pool_conservation", "filter_conservation",
          "no_bad_status", "bytes_delivered", "survivors_serve",
          "recovered", "served_requests", "deterministic")


def load_spec():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


class PerfbenchTest(unittest.TestCase):
    binary = None
    spec = None

    @classmethod
    def setUpClass(cls):
        cls.binary = run.build()
        cls.spec = load_spec()

    def invoke(self, workload, trace, *extra, seed=7, tiny=True):
        cmd = [self.binary, "--workload", workload, "--seed", str(seed),
               "--seconds", "0.1", "--trace", str(trace),
               "--trace-dir", os.path.join(run.build_dir(), "test-traces")]
        cmd += ["--tiny"] if tiny else []
        cmd += list(extra)
        proc = subprocess.run(cmd, cwd=run.ROOT, capture_output=True,
                              text=True, timeout=300)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        res = run.parse_result(proc.stdout)
        self.assertIsNotNone(res, proc.stdout[-2000:])
        return res, proc.stdout

    def assert_metrics(self, res, declared):
        want = {m["name"]: m["unit"] for m in declared}
        got = {k: v["unit"] for k, v in res["metrics"].items()}
        self.assertEqual(got, want)
        for name, m in res["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)

    def test_workload_names_match_spec(self):
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(run.WORKLOADS))

    def test_every_workload_prints_every_metric(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w, trace=0):
                res, _ = self.invoke(w, 0)
                self.assertTrue(res["correct"])
                self.assertGreaterEqual(res["attempted"], 1)
                self.assert_metrics(res, self.spec["end_to_end"])
                for m in self.spec["end_to_end"]:
                    if m["name"] != "sim_fail_frac":
                        self.assertGreater(res["metrics"][m["name"]]["value"], 0,
                                           m["name"])
            with self.subTest(workload=w, trace=1):
                res, _ = self.invoke(w, 1)
                self.assertTrue(res["correct"])
                self.assert_metrics(res, self.spec["per_layer"])

    def test_each_check_fires_on_corrupted_input(self):
        for check in CHECKS:
            with self.subTest(check=check):
                res, out = self.invoke("keepalive_small", 0, "--corrupt", check)
                self.assertFalse(res["correct"], check)
                self.assertEqual(res["failed"], res["attempted"])
                self.assertRegex(out, r"\n  %s\s+FAIL" % check)

    def test_keepalive_small_is_the_fig9_headline(self):
        # At the fig9 seed and its 200+300 ms window the workload reproduces
        # bench/ext_perf: 316.1 krps, histogram p99 1.442 ms, and
        # 3,046,687 events over 326,654 server frames.
        res, _ = self.invoke("keepalive_small", 0, seed=12345, tiny=False)
        self.assertAlmostEqual(res["metrics"]["sim_krps"]["value"], 316.1, delta=0.05)
        res, _ = self.invoke("keepalive_small", 1, seed=12345, tiny=False)
        m = {k: v["value"] for k, v in res["metrics"].items()}
        self.assertAlmostEqual(m["wl.p99_bucket_ms"], 1.442, delta=0.0005)
        self.assertAlmostEqual(m["sim.events_per_pkt"], 3046687 / 326654, places=9)

    def test_traced_run_writes_chrome_traces(self):
        self.invoke("churn_crash", 1)
        stem = os.path.join(run.build_dir(), "test-traces", "churn_crash-7")
        for suffix in (".spans.json", ".flow.json"):
            with open(stem + suffix) as f:
                events = json.load(f)["traceEvents"]
            self.assertTrue(events, suffix)
        with open(stem + ".spans.json") as f:
            names = {e["name"] for e in json.load(f)["traceEvents"]}
        for phase in ("setup/testbed", "run/warmup", "run/measure",
                      "run/measure_after_crash", "teardown"):
            self.assertIn(phase, names)


if __name__ == "__main__":
    unittest.main()
