"""Fast self-test of the benchmark on tiny instances (m = n = 24, 40 iterations).

    python3 benchmarks/selftest.py

Checks that a run emits exactly the metrics ``BENCHMARK.json`` names, each
with its unit, and that the failure, determinism and tracing checks trip on
injected faults.
"""

import json
import tempfile
import unittest
from pathlib import Path
from unittest import mock

import run

run.load_program()

from hpesplit import cli, operators  # noqa: E402
from hpesplit.hpe import AuditReport  # noqa: E402
from hpesplit.linalg import NumericalError  # noqa: E402
from workloads import CP_SPANS, DY_SPANS, Workload  # noqa: E402

TINY = {"m": 24, "n": 24, "iters": 40, "ref_factor": 2}
TINY_CP = Workload("tiny-cp", "self-test", (("cp1-run2", TINY),), CP_SPANS)
TINY_DY = Workload("tiny-dy", "self-test", (("dy-run1", TINY),), DY_SPANS)
SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


class BenchmarkSelfTest(unittest.TestCase):
    def setUp(self):
        run.OUT.mkdir(exist_ok=True)
        self._tmp = tempfile.TemporaryDirectory(dir=run.OUT)
        self.out = Path(self._tmp.name)

    def tearDown(self):
        self._tmp.cleanup()

    def measure(self, workload, trace=0, **kwargs):
        return run.measure(workload, seed=1, seconds=0.01, trace=trace,
                           out_dir=self.out, **kwargs)

    def line(self, res):
        return json.loads(run.result_line(res["correct"], res["attempted"],
                                          res["failed"], res["metrics"]))

    def test_every_named_metric_is_emitted_with_its_unit(self):
        for workload in (TINY_CP, TINY_DY):
            for trace, key in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload.name, trace=trace):
                    res = self.measure(workload, trace)
                    self.assertEqual(res["failures"], [])
                    line = self.line(res)
                    self.assertEqual(list(line), ["correct", "attempted", "failed", "metrics"])
                    self.assertTrue(line["correct"])
                    self.assertEqual(line["failed"], 0)
                    self.assertGreaterEqual(line["attempted"], 1)
                    expected = {m["name"]: m["unit"] for m in SPEC[key]}
                    self.assertEqual(set(line["metrics"]), set(expected))
                    for name, metric in line["metrics"].items():
                        self.assertEqual(metric["unit"], expected[name], name)
                        self.assertIsInstance(metric["value"], (int, float), name)

    def test_certification_failure_is_counted(self):
        strict = Workload("strict", "self-test",
                          (("cp1-run2", dict(TINY, sigma=0.0, inner_cap=1)),), CP_SPANS)
        res = self.measure(strict)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 2)   # hpe-cp in each of the two repeats
        self.assertIn("CertificationError", res["failures"][0])

    def test_numerical_error_is_counted(self):
        with mock.patch.object(cli, "fb_run", side_effect=NumericalError("injected")):
            res = self.measure(TINY_DY)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 2 * len(TINY_DY.configs(1, self.out)[0].methods))
        self.assertTrue(any("NumericalError: injected" in f for f in res["failures"]))

    def test_failed_audit_is_counted(self):
        def failing_audit(trace, sigma, **kwargs):
            return AuditReport(trace.method, len(trace), False, ["k=0: injected"])

        with mock.patch.object(cli, "audit_invariants", failing_audit):
            res = self.measure(TINY_CP)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 2)
        self.assertIn("audit_ok is false", res["failures"][0])

    def test_violation_in_emitted_csv_is_counted(self):
        emit = cli.emit_trace

        def corrupting_emit(trace, path):
            path = emit(trace, path)
            if trace.method.startswith("hpe") and len(trace):
                rows = path.read_text().splitlines()
                cols = rows[1].split(",")
                cols[3] = repr(2.0 * float(cols[4]) + 1.0)   # lhs > sigma * rhs
                path.write_text("\n".join([rows[0], ",".join(cols)] + rows[2:]) + "\n")
            return path

        with mock.patch.object(cli, "emit_trace", corrupting_emit):
            res = self.measure(TINY_DY)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 2)
        self.assertTrue(any("violations in the CSV" in f for f in res["failures"]))

    def test_count_that_changes_between_repeats_fails(self):
        set_target = operators.LsqResolvent.set_target
        calls = []

        def set_target_once_costlier(oracle, rhs, warm_start=None):
            if not calls:
                oracle.H.apply(oracle.candidate)
            calls.append(1)
            return set_target(oracle, rhs, warm_start)

        with mock.patch.object(operators.LsqResolvent, "set_target",
                               set_target_once_costlier):
            res = self.measure(TINY_CP)
        self.assertFalse(res["correct"])
        self.assertEqual(res["failed"], 0)
        self.assertTrue(any(f.startswith("determinism:") for f in res["failures"]))

    def test_span_never_entered_fails_the_traced_run(self):
        expects_driver = Workload("cp-expecting-driver", "self-test",
                                  TINY_CP.experiments, CP_SPANS + ("hpe.driver",))
        res = self.measure(expects_driver, trace=1)
        self.assertFalse(res["correct"])
        self.assertIn("tracing: spans never entered: ['hpe.driver']", res["failures"])

    def test_tracing_leaves_the_program_unpatched(self):
        before = (cli.run_method, cli.clip, operators.LsqResolvent.refine)
        self.measure(TINY_CP, trace=1)
        self.assertEqual(before, (cli.run_method, cli.clip, operators.LsqResolvent.refine))


if __name__ == "__main__":
    unittest.main()
