"""Tests of the benchmark harness itself, on the smoke sizes.

    python3 perfbench/test_perfbench.py        (or: python3 -m pytest perfbench)

They start worker processes and take about half a minute.
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
import unittest

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
sys.path.insert(0, BENCH_DIR)

import run  # noqa: E402
from spec import EXACT_COUNTS  # noqa: E402


def _bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, os.path.join(cwd, "perfbench", "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


def _declared(kind):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[kind]}


class StatsTest(unittest.TestCase):
    def test_tail_percentile_needs_more_than_ten_samples(self):
        self.assertIsNone(run.tail_percentile(list(range(10))))
        tail = run.tail_percentile([float(v) for v in range(20)])
        self.assertEqual(tail["percentile"], 50.0)
        self.assertEqual(tail["value"], 9.0)  # ten samples (10..19) lie beyond it


class SmokeRunTest(unittest.TestCase):
    def _result(self, proc):
        self.assertEqual(proc.returncode, 0, proc.stderr[-2000:])
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreater(result["attempted"], 0)
        return result

    def test_untraced_reports_every_end_to_end_metric(self):
        result = self._result(_bench("--workload", "nonconvex-cli", "--seed", "3",
                                     "--seconds", "1", "--trace", "0", "--smoke"))
        metrics = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(metrics, _declared("end_to_end"))
        self.assertTrue(all(v["value"] > 0 for v in result["metrics"].values()))

    def test_traced_reports_every_layer_metric_and_sees_every_binding(self):
        proc = _bench("--workload", "nonconvex-cli", "--seed", "3",
                      "--seconds", "1", "--trace", "1", "--smoke")
        result = self._result(proc)
        metrics = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(metrics, _declared("per_layer"))
        record_line = [ln for ln in proc.stdout.splitlines() if "record:" in ln][-1]
        with open(os.path.join(ROOT, record_line.split("record:")[1].strip())) as fh:
            record = json.load(fh)
        traced = [i for i in record["instances"] if i["trace"] == 1][0]
        plain = [i for i in record["instances"] if i["trace"] == 0][0]
        self.assertEqual(traced["digest"], plain["digest"])
        fn = traced["tracer"]["fn"]
        layers = traced["layers"]
        # step is reached through evolution's own binding; the count from the
        # returned trajectories must equal the wrapped calls
        self.assertEqual(fn["evolution.step"][0], layers["evolution.steps"])
        self.assertEqual(layers["cli.calls"], 2)
        self.assertEqual(layers["grid.write_bytes"], layers["grid.read_bytes"])
        self.assertGreater(layers["grid.write_bytes"], 0)
        self.assertTrue(set(EXACT_COUNTS) <= set(layers))


class BareTreeTest(unittest.TestCase):
    def test_exits_nonzero_without_a_result_when_the_package_is_missing(self):
        bare = tempfile.mkdtemp(prefix="bare-", dir=os.path.join(ROOT, ".perfbench", "tmp"))
        try:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH_DIR, os.path.join(bare, "perfbench"),
                            ignore=shutil.ignore_patterns("__pycache__"))
            proc = _bench("--workload", "nonconvex-cli", "--seed", "1",
                          "--seconds", "1", "--trace", "0", cwd=bare)
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"correct"', proc.stdout)
        finally:
            shutil.rmtree(bare, ignore_errors=True)


if __name__ == "__main__":
    os.makedirs(os.path.join(ROOT, ".perfbench", "tmp"), exist_ok=True)
    unittest.main()
