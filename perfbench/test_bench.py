#!/usr/bin/env python3
"""Self-tests of the benchmark, at smoke scale.

    python3 perfbench/test_bench.py

They build `dq` and `perfbench` like a run does, then check that every
metric of BENCHMARK.json is printed with its unit, that a run whose
report or response has one byte mutated counts as failed, and that the
in-process decomposition of `dq induce` and `dq detect` writes a model
and a report byte-identical to theirs, and that the reference kernel
does the same work on every run.
"""

import json
import os
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import run as bench  # noqa: E402

SPEC = json.loads((bench.ROOT / "BENCHMARK.json").read_text())


def smoke(workload, trace=0, mutate=None):
    env = dict(os.environ)
    env.pop("PERFBENCH_MUTATE", None)
    if mutate:
        env["PERFBENCH_MUTATE"] = mutate
    cmd = [sys.executable, str(bench.ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", "3", "--seconds", "0", "--trace", str(trace), "--scale", "smoke"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env, check=True)
    lines = r.stdout.strip().splitlines()
    return lines[:-1], json.loads(lines[-1])


class Metrics(unittest.TestCase):
    def check(self, trace, spec):
        for workload in bench.WORKLOADS:
            lines, result = smoke(workload, trace)
            self.assertTrue(result["correct"], (workload, lines))
            self.assertEqual(result["failed"], 0)
            wanted = {m["name"]: m["unit"] for m in spec}
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            self.assertEqual(got, wanted, workload)
            for name, unit in wanted.items():
                printed = [ln.split() for ln in lines if ln.split()[:2] == [workload, name]]
                self.assertEqual(len(printed), 1, (workload, name))
                self.assertEqual(printed[0][3], unit, (workload, name))

    def test_end_to_end_metrics_are_printed_with_units(self):
        self.check(0, SPEC["end_to_end"])

    def test_per_layer_metrics_are_printed_with_units(self):
        self.check(1, SPEC["per_layer"])


class Mutation(unittest.TestCase):
    def test_mutated_report_counts_as_failed(self):
        lines, result = smoke("tdg-train", mutate="report")
        self.assertFalse(result["correct"])
        self.assertGreaterEqual(result["failed"], 1)
        self.assertTrue(any("report.csv" in ln for ln in lines), lines)

    def test_mutated_response_counts_as_failed(self):
        lines, result = smoke("serve-closed-loop", mutate="response")
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertTrue(any("mismatches" in ln for ln in lines), lines)


class Reference(unittest.TestCase):
    def test_reference_kernel_does_the_same_work_every_time(self):
        _, helper = bench.build()
        runs = [json.loads(subprocess.run([str(helper), "ref"], stdout=subprocess.PIPE, text=True,
                                          check=True).stdout) for _ in range(3)]
        self.assertEqual(len({r["check"] for r in runs}), 1, runs)
        self.assertTrue(all(r["cpu_s"] > 0 for r in runs), runs)


class Decomposition(unittest.TestCase):
    """`perfbench inproc --induce` against `dq induce` and `dq detect`."""

    @classmethod
    def setUpClass(cls):
        cls.dq, cls.helper = (str(p) for p in bench.build())
        cls.dir = bench.WORK / "selftest"

    def tearDown(self):
        shutil.rmtree(self.dir, ignore_errors=True)

    def dq_pipeline(self, kind, rows, seed):
        shutil.rmtree(self.dir, ignore_errors=True)
        train = self.dir / "train"
        gen = [self.dq, "generate", kind, "--out", train, "--rows", rows, "--seed", seed]
        if kind == "tdg":
            gen += ["--stream-chunk-rows", 4096, "--checkpoint", train / "ck"]
        for cmd in (
            gen,
            [self.dq, "induce", "--schema", train / "schema.dqs", "--input", train / "dirty.csv",
             "--model", self.dir / "model.dqm"],
            [self.dq, "detect", "--schema", train / "schema.dqs", "--model", self.dir / "model.dqm",
             "--input", train / "dirty.csv", "--report", self.dir / "report.csv", "--top", "0"],
        ):
            subprocess.run([str(c) for c in cmd], stdout=subprocess.DEVNULL, check=True)

    def inproc(self, kind, rows, seed):
        cmd = [self.helper, "inproc", "--kind", kind, "--dir", self.dir, "--train-rows", rows,
               "--train-seed", seed, "--induce"]
        r = subprocess.run([str(c) for c in cmd], stdout=subprocess.PIPE, text=True, check=True)
        return json.loads(r.stdout.strip().splitlines()[-1])

    def test_traced_induce_and_detect_match_dq(self):
        for kind in ("tdg", "quis"):
            self.dq_pipeline(kind, 4000, 11)
            result = self.inproc(kind, 4000, 11)
            self.assertTrue(result["ok"], (kind, result["mismatches"]))
            for span in ("mining.presort", "mining.grow", "core.model_save", "core.scan"):
                self.assertIn(span, result["spans"], kind)

    def test_a_changed_model_or_report_byte_is_caught(self):
        self.dq_pipeline("quis", 3000, 5)
        for name in ("model.dqm", "report.csv"):
            saved = (self.dir / name).read_bytes()
            bench.mutate_first_byte(self.dir / name)
            self.assertIn(name, self.inproc("quis", 3000, 5)["mismatches"])
            (self.dir / name).write_bytes(saved)


if __name__ == "__main__":
    unittest.main(verbosity=2)
