"""Quick test of the benchmark: every workload at a toy size.

Checks the output schema against BENCHMARK.json, that the correctness
checks pass on the library's outputs and reject corrupted ones, and that
traced counts repeat; never the timings.  Run from the repository root:

    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import dataclasses
import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import check  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def tiny(workload, traced):
    return run.run_workload(workload, run.DEFAULT_SEED, 0.001, traced, "tiny")


class SchemaTest(unittest.TestCase):
    def assert_metrics(self, result, specs):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        self.assertEqual(list(result["metrics"]), [m["name"] for m in specs])
        for m in specs:
            self.assertEqual(result["metrics"][m["name"]]["unit"], m["unit"])

    def test_untraced_workloads(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                record, result = tiny(workload, traced=False)
                self.assert_metrics(result, SPEC["end_to_end"])
                self.assertEqual(record["seed"], run.DEFAULT_SEED)
                for value in result["metrics"].values():
                    self.assertGreater(value["value"], 0)

    def test_traced_workloads(self):
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                _, result = tiny(workload, traced=True)
                self.assert_metrics(result, SPEC["per_layer"])

    def test_traced_rounds_repeat_their_counts(self):
        """Every traced round starts from a fresh import, so no state kept
        by the library can make a later round count less."""
        for workload in run.WORKLOADS:
            with self.subTest(workload=workload):
                runner = run.Runner(workload,
                                    workloads.generate(workload, "tiny", run.DEFAULT_SEED))
                first, second = (runner.run(0, traced=True)[0].layers for _ in range(2))
                counts = [{k: v for k, v in m.items() if not k.endswith("_s")}
                          for m in (first, second)]
                self.assertEqual(counts[0], counts[1])
                self.assertGreater(first["rings.calls"], 0)

    def test_run_ends_when_every_operation_raises(self):
        def fail():
            raise ArithmeticError("always")

        class Raising(run.Runner):
            def setup(self):
                rl, ops = super().setup()
                return rl, [dataclasses.replace(op, call=fail) for op in ops]

        runner = Raising("lattice-z", workloads.generate("lattice-z", "tiny", run.DEFAULT_SEED))
        rounds = runner.run(0.05)
        self.assertEqual(runner.attempted, len(rounds) * len(runner.ops))
        self.assertEqual(runner.failed, runner.attempted)
        self.assertEqual(runner.wrong_outputs, 0)

    def test_workload_names_match(self):
        self.assertEqual([w["name"] for w in SPEC["workloads"]], list(run.WORKLOADS))

    def test_refuses_to_run_without_the_library(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copytree(HERE, Path(tmp) / HERE.name,
                            ignore=shutil.ignore_patterns("__pycache__"))
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            done = subprocess.run([sys.executable] + SPEC["command"][1:] +
                                  ["--workload", "lattice-z", "--seed", "1", "--seconds", "1",
                                   "--trace", "0"],
                                  cwd=tmp, capture_output=True, text=True, timeout=60)
        self.assertNotEqual(done.returncode, 0)
        self.assertNotIn('"metrics"', done.stdout)


class CheckTest(unittest.TestCase):
    """The independent checks accept the library's outputs and reject
    corrupted ones."""

    @classmethod
    def setUpClass(cls):
        cls.rl = run.import_rigidlin()
        cls.a = ((2, 4, 4), (-6, 6, 12), (10, -4, -16))
        cls.det_a = check.det(check.IntegerOps(), cls.a)
        cls.m = cls.rl.Matrix(cls.rl.Integers(), cls.a)

    def corrupt(self, grid, i=0, j=-1, delta=1):
        rows = [list(r) for r in grid]
        rows[i][j] += delta
        return tuple(map(tuple, rows))

    def test_det(self):
        self.assertEqual(self.det_a, self.m.det())
        self.assertEqual(check.det(check.PolynomialOps(5), (((1, 1), (2,)), ((3,), (0, 1)))),
                         (4, 1, 1))  # (1+x)x - 6 = x^2 + x - 6 = x^2 + x + 4 over F5
        self.assertTrue(check.check_det(self.det_a + 1, self.det_a))

    def test_hnf(self):
        z = check.IntegerOps()
        h, u = (m.entries for m in self.rl.hermite_normal_form(self.m))
        self.assertEqual(check.check_hnf(z, self.a, h, u, self.det_a), [])
        self.assertTrue(check.check_hnf(z, self.a, self.corrupt(h), u, self.det_a))
        twice = tuple(tuple(2 * x for x in row) for row in u)
        self.assertTrue(check.check_hnf(z, self.a, tuple(tuple(2 * x for x in row) for row in h),
                                        twice, self.det_a))

    def test_snf(self):
        z = check.IntegerOps()
        d, u, v = (m.entries for m in self.rl.smith_normal_form(self.m))
        self.assertEqual(check.check_snf(z, self.a, d, u, v, self.det_a), [])
        self.assertTrue(check.check_snf(z, self.a, self.corrupt(d, 0, 1), u, v, self.det_a))

    def test_kernel_and_stream_over_fp5(self):
        f5 = check.PolynomialOps(5)
        ring = self.rl.PrimeFieldPolynomials(5)
        rows = (((1, 1), (2,), (0, 0, 1)), ((3,), (0, 1), (1,)))
        basis = self.rl.kernel_basis(self.rl.Matrix(ring, rows)).basis
        self.assertEqual(check.check_kernel(f5, rows, basis), [])
        scaled = tuple(tuple(f5.mul((0, 1), x) for x in v) for v in basis)
        self.assertTrue(check.check_kernel(f5, rows, scaled))  # x * basis is not primitive
        vectors = tuple(self.rl.solution_stream(self.rl.Matrix(ring, rows), 4))
        self.assertEqual(check.check_stream(f5, rows, vectors, 4), [])
        self.assertTrue(check.check_stream(f5, rows, vectors[:3] + vectors[:1], 4))

    def test_inverse(self):
        z = check.IntegerOps()
        u = self.rl.hermite_normal_form(self.m)[1]
        inv = u.inverse().entries
        self.assertEqual(check.check_inverse(z, u.entries, inv), [])
        self.assertTrue(check.check_inverse(z, u.entries, self.corrupt(inv)))

    def test_report_samples_are_rechecked(self):
        z = check.IntegerOps()
        params = {"n": 3, "trials": 2, "need": 5, "word_length": 6, "param_bound": 3,
                  "conjugators": 2, "seed": 1}
        report = self.rl.run_suite("lemma-new", self.rl.Integers(), params).to_dict()
        self.assertEqual(check.check_report(z, report, "lemma-new", params, 2), [])
        sample = report["samples"][0]
        conjugate = check.parse_matrix(z, sample["conjugate"])
        sample["conjugate"] = ";".join(",".join(map(str, r)) for r in self.corrupt(conjugate))
        self.assertTrue(check.check_report(z, report, "lemma-new", params, 2))
        report["samples"] = []
        self.assertTrue(check.check_report(z, report, "lemma-new", params, 3))  # trial count


if __name__ == "__main__":
    unittest.main()
