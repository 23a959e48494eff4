#!/usr/bin/env python3
"""Smoke tests of the repository benchmark at tiny sizes.

    python3 perfbench/test_perfbench.py

Builds through run.py (like any run), then checks for every workload that
each metric BENCHMARK.json names is printed with its unit, that the output
checks pass, that the seed changes the generated inputs, and that the CLI
rejects bad flags.
"""

import json
import shutil
import subprocess
import sys
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN = ["python3", "perfbench/run.py"]
BINARY = ROOT / ".bench_build" / "perfbench" / "perfbench"
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run(*args, check=True):
    out = subprocess.run(RUN + list(args), cwd=ROOT, capture_output=True,
                         text=True, timeout=600)
    if check and out.returncode != 0:
        raise AssertionError(f"{args} exited {out.returncode}:\n{out.stderr}")
    return out


def smoke(workload, seed, trace):
    out = run("--workload", workload, "--seed", str(seed), "--seconds", "1",
              "--trace", str(trace), "--size", "tiny")
    lines = out.stdout.strip().splitlines()
    provenance = json.loads(lines[-2])["provenance"]
    return json.loads(lines[-1]), provenance


class Smoke(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run("--workload", "mapreduce", "--seed", "1", "--seconds", "1",
            "--trace", "0", "--size", "tiny")

    def check_result(self, result, spec_metrics):
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual(result["failed"], 0)
        self.assertGreaterEqual(result["attempted"], 1)
        expected = {m["name"]: m["unit"] for m in spec_metrics}
        printed = {k: v["unit"] for k, v in result["metrics"].items()}
        self.assertEqual(printed, expected)
        for name, metric in result["metrics"].items():
            self.assertIsInstance(metric["value"], (int, float), name)

    def test_every_workload_prints_every_metric_and_passes_its_checks(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload, trace=0):
                result, prov = smoke(workload, 2015, 0)
                self.check_result(result, SPEC["end_to_end"])
                for name in ("setup_s", "op_s", "peak_rss_mb"):
                    self.assertGreater(result["metrics"][name]["value"], 0)
                self.assertEqual(prov["seed"], 2015)
                self.assertEqual(prov["nproc"], prov["threads"])
            with self.subTest(workload=workload, trace=1):
                result, _ = smoke(workload, 2015, 1)
                self.check_result(result, SPEC["per_layer"])

    def test_seed_changes_the_inputs(self):
        for workload in WORKLOADS:
            with self.subTest(workload=workload):
                _, a = smoke(workload, 2015, 0)
                _, b = smoke(workload, 2015, 0)
                _, c = smoke(workload, 4242, 0)
                self.assertEqual(a["input_digest"], b["input_digest"])
                self.assertNotEqual(a["input_digest"], c["input_digest"])

    def test_strict_cli(self):
        good = ["--workload", "fig8", "--seed", "1", "--seconds", "1",
                "--trace", "0", "--size", "tiny"]
        bad = [
            ["--help"],
            good + ["--smal"],
            ["--workload", "fig9"] + good[2:],
            ["--work", "fig8"] + good[2:],
            good[:4] + ["--secs", "1"] + good[6:],
            good[:5] + ["0"] + good[6:],
            good[:7] + ["2"] + good[8:],
            good[:-1] + ["small"],
        ]
        for args in bad:
            with self.subTest(args=args):
                out = run(*args, check=False)
                self.assertEqual(out.returncode, 2)
                self.assertIn("usage", out.stderr)
                self.assertEqual(out.stdout, "")
        for args in (["--help"], ["--workload", "fig8", "--smal", "1"],
                     ["--workload", "fig8", "--seed"]):
            with self.subTest(binary=args):
                out = subprocess.run([str(BINARY)] + args, capture_output=True,
                                     text=True)
                self.assertEqual(out.returncode, 2)
                self.assertIn("usage", out.stderr)

    def test_fails_without_the_simulator_sources(self):
        alone = ROOT / ".bench_build" / "perfbench-alone"
        shutil.rmtree(alone, ignore_errors=True)
        (alone / "perfbench").mkdir(parents=True)
        shutil.copy(ROOT / "BENCHMARK.json", alone)
        for f in (ROOT / "perfbench").iterdir():
            if f.is_file():
                shutil.copy(f, alone / "perfbench")
        try:
            out = subprocess.run(RUN + ["--workload", "fig8", "--seed", "1",
                                        "--seconds", "1", "--trace", "0"],
                                 cwd=alone, capture_output=True, text=True,
                                 timeout=180)
            self.assertNotEqual(out.returncode, 0)
            self.assertNotIn('"correct"', out.stdout)
        finally:
            shutil.rmtree(alone, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(unittest.main())
