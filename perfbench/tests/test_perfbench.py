"""Self-tests of the repo benchmark.

    python3 -m unittest discover -s perfbench/tests -v

Each test drives perfbench/run.py the way a benchmark run does, with
one-second runs (about two minutes in all, most of it set-up).
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
RUN = ROOT / "perfbench" / "run.py"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]

# The core replay of mnv1_f32_1t must account for the interpreter's warm
# run within this share. Interpreter bookkeeping outside the kernels is
# about 1% of a run; the rest of the margin is host noise between the
# two halves of a traced run, which measure run and replay at different
# times.
REPLAY_COVERAGE_BOUND = 0.25


def run_bench(workload, trace, *extra, seed=7):
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed",
           str(seed), "--seconds", "1", "--trace", str(trace), *extra]
    p = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                       timeout=900)
    lines = p.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return p.returncode, result, p.stderr


class ShortRuns(unittest.TestCase):
    """One short run per workload and mode, shared by the tests."""

    runs = {}

    @classmethod
    def setUpClass(cls):
        for w in WORKLOADS:
            for trace in (0, 1):
                cls.runs[(w, trace)] = run_bench(w, trace)

    def test_every_declared_metric_with_its_unit(self):
        for (w, trace), (code, result, err) in self.runs.items():
            with self.subTest(workload=w, trace=trace):
                self.assertEqual(code, 0, err)
                self.assertEqual(set(result),
                                 {"correct", "attempted", "failed",
                                  "metrics"})
                self.assertTrue(result["correct"])
                self.assertEqual(result["failed"], 0)
                self.assertGreaterEqual(result["attempted"], 1)
                declared = SPEC["per_layer" if trace else "end_to_end"]
                self.assertEqual(list(result["metrics"]),
                                 [m["name"] for m in declared])
                for m in declared:
                    got = result["metrics"][m["name"]]
                    self.assertEqual(got["unit"], m["unit"])
                    self.assertIsInstance(got["value"], (int, float))
                    if not trace:
                        self.assertGreater(got["value"], 0, m["name"])

    def test_int8_accuracy_repeats_exactly(self):
        seen = {(r["metrics"]["int8_top1_agree"]["value"],
                 r["metrics"]["int8_sqnr_db"]["value"])
                for (w, trace), (_, r, _) in self.runs.items() if not trace}
        self.assertEqual(len(seen), 1, seen)

    def test_core_replay_covers_the_warm_run(self):
        _, result, _ = self.runs[("mnv1_f32_1t", 1)]
        m = {k: v["value"] for k, v in result["metrics"].items()}
        core = sum(m[f"core.{b}_ms"] for b in (
            "conv_pw", "conv_dw", "conv_other", "dense", "rnn", "misc"))
        self.assertAlmostEqual(m["graph.residual_ms"],
                               m["graph.run_ms"] - core, places=6)
        self.assertLessEqual(abs(m["graph.residual_ms"]),
                             REPLAY_COVERAGE_BOUND * m["graph.run_ms"])

    def test_traced_run_writes_a_chrome_trace_with_host_spans(self):
        out = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        for w in WORKLOADS:
            with self.subTest(workload=w):
                trace = json.loads(
                    (out / "traces" / f"{w}-seed7.trace.json").read_text())
                events = trace["traceEvents"]
                lanes = {e["tid"]: e["args"]["name"] for e in events
                         if e.get("name") == "thread_name"}
                host = [tid for tid, name in lanes.items()
                        if name.startswith("host")]
                self.assertEqual(len(host), 1, lanes)
                spans = {e["name"] for e in events
                         if e.get("ph") == "X" and e["tid"] == host[0]}
                for name in ("graph.parse", "graph.materialize",
                             "graph.first_run", "graph.run"):
                    self.assertIn(name, spans)
                self.assertTrue(any(s.startswith("core.replay(")
                                    for s in spans))


class Failures(unittest.TestCase):

    def test_corrupted_reference_fails_the_run(self):
        for w in ("mnv1_f32_1t", "mnv1_int8_4t", "deploy_churn"):
            with self.subTest(workload=w):
                code, result, _ = run_bench(w, 0, "--corrupt-reference")
                self.assertEqual(code, 1)
                self.assertFalse(result["correct"])
                self.assertGreaterEqual(result["failed"], 1)

    def test_unknown_workload_prints_no_result(self):
        code, result, _ = run_bench("no_such_workload", 0)
        self.assertEqual(code, 2)
        self.assertIsNone(result)

    def test_without_the_source_tree_it_fails_cleanly(self):
        out = ROOT / os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        bare = out / "selftest-bare"
        shutil.rmtree(bare, ignore_errors=True)
        bare.mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        shutil.copytree(ROOT / "perfbench", bare / "perfbench",
                        ignore=shutil.ignore_patterns("__pycache__"))
        env = dict(os.environ)
        env.pop("CARGO_TARGET_DIR", None)
        p = subprocess.run(
            [sys.executable, "perfbench/run.py", "--workload", WORKLOADS[0],
             "--seed", "1", "--seconds", "1", "--trace", "0"],
            cwd=bare, capture_output=True, text=True, timeout=180, env=env)
        shutil.rmtree(bare, ignore_errors=True)
        self.assertNotEqual(p.returncode, 0)
        self.assertEqual(p.stdout.strip(), "")


if __name__ == "__main__":
    unittest.main()
