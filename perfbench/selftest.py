"""Self-test of the benchmark at criterion-10 scale.

    python3 perfbench/selftest.py

Runs every workload of workloads.py untraced and traced on tiny corpora (6 streams x 8
utterances x 12 classes, 1 AE epoch) and checks that the result line
names every metric of BENCHMARK.json with its unit, that the outputs pass
their checks and that every predicted trace count matches.  Also checks
that the benchmark refuses to run without the streamfuse source.  Takes
about a minute.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

from workloads import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=600,
    )


class TinyRuns(unittest.TestCase):
    def check_result(self, proc, metric_spec):
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in metric_spec}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(got, expected)
        for name, m in result["metrics"].items():
            self.assertIsInstance(m["value"], (int, float), name)
        return result

    def test_workloads(self):
        for name in workloads("tiny"):  # also the ones BENCHMARK.json leaves out
            with self.subTest(workload=name, trace=0):
                proc = run_bench(ROOT, "--workload", name, "--seconds", "0", "--trace", "0", "--size", "tiny")
                self.check_result(proc, SPEC["end_to_end"])
            with self.subTest(workload=name, trace=1):
                proc = run_bench(ROOT, "--workload", name, "--seconds", "0", "--trace", "1", "--size", "tiny")
                result = self.check_result(proc, SPEC["per_layer"])
                self.assertIn("trace coverage: all", proc.stdout)
                self.assertEqual(result["metrics"]["trace.count_mismatches"]["value"], 0)

    def test_refuses_without_source(self):
        (ROOT / ".perfbench_work").mkdir(exist_ok=True)
        bare = Path(tempfile.mkdtemp(prefix="bare_", dir=ROOT / ".perfbench_work"))
        try:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(BENCH_DIR, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
            proc = run_bench(bare, "--workload", SPEC["workloads"][0]["name"], "--seed", "1", "--seconds", "1", "--trace", "0")
            self.assertNotEqual(proc.returncode, 0)
            self.assertNotIn('"metrics"', proc.stdout)
        finally:
            shutil.rmtree(bare)
            try:
                (ROOT / ".perfbench_work").rmdir()
            except OSError:
                pass


if __name__ == "__main__":
    unittest.main()
