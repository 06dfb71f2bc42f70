"""Self-test of the benchmark at tiny sizes.

    python3 perfbench/test_perfbench.py
"""

import json
import subprocess
import sys
import unittest
from fractions import Fraction

import run
import workloads

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def bench(workload: str, trace: int, seed: int = 1) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


class EveryMetric(unittest.TestCase):
    def test_every_metric_present_with_unit_and_no_failures(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            for trace, section in ((0, "end_to_end"), (1, "per_layer")):
                with self.subTest(workload=workload, trace=trace):
                    result = bench(workload, trace)
                    expected = {m["name"]: m["unit"] for m in SPEC[section]}
                    got = {name: row["unit"] for name, row in result["metrics"].items()}
                    self.assertEqual(got, expected)
                    for row in result["metrics"].values():
                        self.assertIsInstance(row["value"], (int, float))
                    self.assertTrue(result["correct"])
                    self.assertEqual(result["failed"], 0)
                    self.assertGreaterEqual(result["attempted"], 1)
                    if trace:
                        self.assertEqual(result["metrics"]["fail_frac"]["value"], 0)


class Digest(unittest.TestCase):
    def test_same_seed_same_digest_other_seed_other_digest(self):
        for name in workloads.WORKLOADS:
            with self.subTest(workload=name):
                self.assertEqual(run.stream_digest(name, 7), run.stream_digest(name, 7))
                self.assertNotEqual(run.stream_digest(name, 7), run.stream_digest(name, 8))


class FailuresAreCounted(unittest.TestCase):
    def off_by_one(self, workload):
        ht = workload.ht
        base = ht.get_identity("catalan")
        return ht.HookIdentity("catalan", base.weight, base.prefactor,
                               lambda n: Fraction(ht.catalan(n) + 1))

    def test_wrong_rhs_is_a_failure_not_an_exception(self):
        cases = (
            (workloads.RecurrenceDeep(tiny=True),
             {"kind": "verify", "identity": "catalan", "N": 6}),
            (workloads.BruteMix(tiny=True),
             {"kind": "pair", "n": 5, "identity": "catalan", "i": 0}),
        )
        for workload, op in cases:
            with self.subTest(workload=workload.name):
                workload.setup()
                workload.identities["catalan"] = self.off_by_one(workload)
                samples, failures = workloads.run_ops(workload, [op, op])
                self.assertEqual(len(samples), 2)
                self.assertEqual(len(failures), 2)

    def test_raising_rhs_is_counted(self):
        workload = workloads.RecurrenceDeep(tiny=True)
        workload.setup()
        base = workload.ht.get_identity("han4")
        workload.identities["han4"] = workload.ht.HookIdentity(
            "han4", base.weight, base.prefactor, lambda n: 1 // 0)
        samples, failures = workloads.run_ops(
            workload, [{"kind": "verify", "identity": "han4", "N": 4}])
        self.assertEqual(len(failures), 1)
        self.assertIn("ZeroDivisionError", failures[0])


if __name__ == "__main__":
    unittest.main()
