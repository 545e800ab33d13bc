"""Contract tests of the end-to-end benchmark.

Run from the root of a checkout (builds the benchmark on first use):
    python3 -m unittest discover -s perfbench/tests -v
"""
import json
import math
import os
import re
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.dirname(HERE))
import run  # noqa: E402  (perfbench/run.py)

NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def bench(*args):
    out = subprocess.run([run.BINARY, *args, "--out-dir", run.OUT_DIR],
                         cwd=run.ROOT, capture_output=True, text=True, check=True)
    return out.stdout.strip().splitlines()


def result(workload, trace, seed=7, seconds="1"):
    last = bench("--workload", workload, "--seed", str(seed),
                  "--seconds", seconds, "--trace", str(trace))[-1]
    return last, json.loads(last)


class PerfbenchContract(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        if not run.build():
            raise RuntimeError("perfbench build failed")
        os.makedirs(run.OUT_DIR, exist_ok=True)
        cls.catalogue = json.loads(bench("--describe")[-1])
        with open(os.path.join(run.ROOT, "BENCHMARK.json")) as f:
            cls.bench = json.load(f)

    def test_metric_names_and_counts(self):
        e2e = self.catalogue["end_to_end"]
        layer = self.catalogue["per_layer"]
        self.assertLessEqual(len(e2e), 16)
        self.assertLessEqual(len(layer), 128)
        names = [m["name"] for m in e2e + layer]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)

    def test_benchmark_json_matches_the_binary(self):
        for key in ("end_to_end", "per_layer"):
            declared = {m["name"]: m["unit"] for m in self.bench[key]}
            printed = {m["name"]: m["unit"] for m in self.catalogue[key]}
            self.assertEqual(declared, printed, key)
        self.assertEqual([w["name"] for w in self.bench["workloads"]],
                         self.catalogue["workloads"])
        setup = [m for m in self.bench["end_to_end"] if m["name"] == "setup_s"][0]
        self.assertEqual(max(m["bound"] for m in self.bench["end_to_end"]), setup["bound"])

    def test_frozen_rates_are_recorded_in_benchmark_json(self):
        why = {w["name"]: w["why"] for w in self.bench["workloads"]}
        rates = self.catalogue["rates_rps"]
        for key in ("poisson_capacity", "poisson_low", "poisson_high"):
            self.assertRegex(why["serve_poisson"], r"\b%d\b" % rates[key], key)

    def test_same_seed_gives_identical_inputs(self):
        for workload in self.catalogue["workloads"]:
            a = bench("--inputs-digest", "--workload", workload, "--seed", "3")
            b = bench("--inputs-digest", "--workload", workload, "--seed", "3")
            c = bench("--inputs-digest", "--workload", workload, "--seed", "4")
            self.assertEqual(a, b, workload)
            self.assertNotEqual(a, c, workload)

    def test_output_round_trips_and_traced_run_prints_the_layer_set(self):
        line, untraced = result("serve_poisson", 0)
        self.assertEqual(json.loads(json.dumps(untraced)), json.loads(line))
        _, traced = result("serve_poisson", 1)
        for out, key in ((untraced, "end_to_end"), (traced, "per_layer")):
            self.assertEqual(set(out), {"correct", "attempted", "failed", "metrics"})
            self.assertTrue(out["correct"])
            self.assertGreaterEqual(out["attempted"], 1)
            self.assertEqual(out["failed"], 0)
            units = {m["name"]: m["unit"] for m in self.catalogue[key]}
            self.assertEqual({k: v["unit"] for k, v in out["metrics"].items()}, units)
            for v in out["metrics"].values():
                self.assertTrue(math.isfinite(v["value"]))
        for v in untraced["metrics"].values():
            self.assertGreater(v["value"], 0.0)
        # The traced run measures the same end-to-end set (kept in its report
        # to give the tracing overhead).
        with open(os.path.join(run.OUT_DIR, "serve_poisson-seed7.layers.json")) as f:
            report = json.load(f)
        traced_e2e = {k[len("traced."):] for k in report if k.startswith("traced.")}
        self.assertEqual(traced_e2e, set(untraced["metrics"]))
        self.assertIn("self_ms.unattributed", report)
        self.assertTrue(any(k.startswith("overhead.") for k in report))


if __name__ == "__main__":
    unittest.main()
