"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Runs each workload once at minimal length, untraced and traced, and checks
the harness itself: every metric named in BENCHMARK.json is printed with its
unit, spans nest and have non-negative self time, a failing operation is
counted without ending the run, a vanished hook is reported as absent and a
changed one as unreadable, and a directory without the package makes the
run fail.  Takes about three
minutes on two cores.
"""

from __future__ import annotations

import json
import math
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest
from unittest import mock

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import run  # noqa: E402

run.prepare_environment()

import tracer  # noqa: E402
import workloads  # noqa: E402

SEED = 3


def _bench_run(workload: str, trace: int, cwd: str = ROOT):
    return subprocess.run(
        [sys.executable, os.path.join("bench", "run.py"), "--workload",
         workload, "--seed", str(SEED), "--seconds", "1", "--trace",
         str(trace)], cwd=cwd, capture_output=True, text=True, timeout=900)


def _result(workload: str, trace: int) -> tuple[dict, dict]:
    proc = _bench_run(workload, trace)
    if proc.returncode != 0:
        raise AssertionError(f"{workload} exited {proc.returncode}:\n"
                             f"{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-1]), json.loads(lines[-2])


class SmokeRuns(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            cls.spec = json.load(f)
        cls.names = [w["name"] for w in cls.spec["workloads"]]

    def _check_metrics(self, result: dict, declared: list[dict]) -> None:
        self.assertEqual(set(result), {"correct", "attempted", "failed",
                                       "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        metrics = result["metrics"]
        self.assertEqual(list(metrics), [m["name"] for m in declared])
        for m in declared:
            entry = metrics[m["name"]]
            self.assertEqual(entry["unit"], m["unit"], m["name"])
            self.assertTrue(math.isfinite(entry["value"]), m["name"])

    def test_workloads_match_spec(self):
        self.assertEqual(self.names, list(workloads.WORKLOADS))

    def test_one_command_prints_every_end_to_end_metric(self):
        proc = _bench_run("all", 0)
        self.assertEqual(proc.returncode, 0, proc.stderr)
        lines = proc.stdout.strip().splitlines()
        results = json.loads(lines[-1])
        self.assertEqual(list(results), self.names)
        for name in self.names:
            with self.subTest(workload=name):
                result = results[name]
                self._check_metrics(result, self.spec["end_to_end"])
                for m in self.spec["end_to_end"]:
                    line = (f"^{name} {re.escape(m['name'])} \\S+ "
                            f"{re.escape(m['unit'])}$")
                    self.assertRegex(proc.stdout, re.compile(line, re.M))
                    self.assertGreater(result["metrics"][m["name"]]["value"],
                                       0.0, m["name"])

    def test_traced_spans_nest(self):
        for name in self.names:
            with self.subTest(workload=name):
                result, info = _result(name, 1)
                self._check_metrics(result, self.spec["per_layer"])
                details = info["details"]
                self.assertEqual(details["absent"], [])
                self.assertEqual(details["unreadable"], {})
                with open(os.path.join(ROOT, details["trace_file"])) as f:
                    trace = json.load(f)
                spans = {s[0]: s for s in trace["spans"]}
                self.assertTrue(spans)
                child = dict.fromkeys(spans, 0.0)
                for sid, _, start, end, parent, op in spans.values():
                    self.assertLessEqual(start, end)
                    if parent >= 0:
                        p = spans[parent]
                        self.assertLessEqual(p[2], start)
                        self.assertGreaterEqual(p[3], end)
                        self.assertEqual(p[5], op)
                        child[parent] += end - start
                for sid, _, start, end, _, _ in spans.values():
                    # start/end are rounded to 0.1 us in the file
                    self.assertGreaterEqual(end - start - child[sid], -1e-5)
                self.assertGreaterEqual(
                    result["metrics"]["estimator.run_child_share"]["value"],
                    0.9)


class FailuresAndAbsence(unittest.TestCase):
    def test_failing_operation_is_counted(self):
        class Failing(workloads.TrainWorkload):
            calls = 0

            def op(self, sample):
                Failing.calls += 1
                # the first timed operation, after the warm-ups and the
                # quality list
                if Failing.calls == (run.SETUP_REPEATS
                                     + workloads.TrainWorkload.QUALITY_OPS + 1):
                    raise RuntimeError("injected failure")
                return super().op(sample)

        result, details = run.measure(Failing, SEED, 1.0, False, workdir="")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertGreater(result["attempted"],
                           workloads.TrainWorkload.QUALITY_OPS)
        ok = result["metrics"]["ok_ratio"]["value"]
        self.assertAlmostEqual(ok, 1.0 - 1.0 / result["attempted"])
        self.assertIn("injected failure", details["errors"][0])
        self.assertTrue(math.isfinite(result["metrics"]["train_loss"]["value"]))

    def test_vanished_hook_is_absent(self):
        gone = ("matching.gone", "mvsgru.matching", "no_such_function")

        def changed_signature(self, args, out):
            return args[99]

        with mock.patch.object(tracer, "HOOKS", tracer.HOOKS + (gone,)), \
                mock.patch.object(tracer.Tracer, "_observe_tensor_conv2d",
                                  changed_signature):
            t = tracer.Tracer()
            w = workloads.TrainWorkload(SEED, "")
            t.begin_op(0)
            try:
                w.op(w.prepare(0))
            finally:
                t.end_op()
        self.assertEqual(t.absent, ["mvsgru.matching.no_such_function"])
        self.assertEqual(list(t.unreadable), ["tensor.conv2d"])
        metrics = t.metrics(overhead_ratio=0.0)
        self.assertGreater(metrics["tensor.backward_s"], 0.0)
        self.assertEqual(metrics["tensor.tape_entries"],
                         float(int(metrics["tensor.tape_entries"])))

    def test_hooks_are_removed_after_an_operation(self):
        from mvsgru import matching, nn, tensor
        before = (tensor.conv2d, nn.conv2d, matching.bilinear_sample)
        t = tracer.Tracer()
        t.begin_op(0)
        self.assertIsNot(nn.conv2d, before[1])
        t.end_op()
        self.assertEqual((tensor.conv2d, nn.conv2d, matching.bilinear_sample),
                         before)

    def test_fails_without_the_package(self):
        with tempfile.TemporaryDirectory() as bare:
            shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
            shutil.copytree(BENCH, os.path.join(bare, "bench"),
                            ignore=shutil.ignore_patterns(
                                "__pycache__", "out", ".work"))
            proc = _bench_run("train-64", 0, cwd=bare)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
