"""Smoke test of the benchmark itself, at a tiny trace length.

    python3 simbench/smoke_test.py      (or: python3 -m pytest simbench/)

Checks that every metric name and unit the benchmark prints matches
BENCHMARK.json, and that a deliberately corrupted pinned digest is
counted as a failure and makes the command exit non-zero.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".simbench", "smoke")
TINY = "200"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def write_pinned(name, document):
    os.makedirs(SCRATCH, exist_ok=True)
    path = os.path.join(SCRATCH, name)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(document, handle)
    return path


#: Pins nothing: its seed matches no run.
UNPINNED = {"seed": 0, "workloads": {}}


def bench(workload, pinned, trace=0):
    """Run the benchmark command tiny; (exit code, result, stdout)."""
    spec = load_spec()
    command = [sys.executable] + spec["command"][1:] + [
        "--workload", workload, "--seed", "1", "--seconds", "0",
        "--trace", str(trace), "--trace-len", TINY, "--pinned", pinned]
    child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                           text=True, timeout=300)
    lines = child.stdout.strip().splitlines()
    return child.returncode, json.loads(lines[-1]), child.stdout


class SmokeTest(unittest.TestCase):

    def test_metric_names_and_units_match_benchmark_json(self):
        spec = load_spec()
        pinned = write_pinned("unpinned.json", UNPINNED)
        expected = {
            0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            1: {m["name"]: m["unit"] for m in spec["per_layer"]},
        }
        for workload in [w["name"] for w in spec["workloads"]]:
            for trace, names in expected.items():
                with self.subTest(workload=workload, trace=trace):
                    code, result, _out = bench(workload, pinned, trace)
                    self.assertEqual(code, 0)
                    self.assertEqual(sorted(result), ["attempted", "correct",
                                                      "failed", "metrics"])
                    self.assertTrue(result["correct"])
                    self.assertGreaterEqual(result["attempted"], 1)
                    got = {name: metric["unit"]
                           for name, metric in result["metrics"].items()}
                    self.assertEqual(got, names)

    def test_corrupted_pinned_digest_is_a_failure(self):
        record = subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"),
             "--workload", "sim-blocked", "--seed", "1", "--trace-len", TINY,
             "--pinned", write_pinned("unpinned.json", UNPINNED)],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=True,
            timeout=300).stdout.strip().splitlines()[-1]
        cells = {cell["id"]: cell["digest"]
                 for cell in json.loads(record)["cells"]}
        pinned = {"seed": 1, "workloads": {"sim-blocked": {
            "trace_len": int(TINY), "cells": cells, "exhibits": {}}}}
        code, result, _out = bench("sim-blocked",
                                   write_pinned("right.json", pinned))
        self.assertEqual((code, result["failed"]), (0, 0))

        victim = sorted(cells)[0]
        cells[victim] = "0" * 64
        code, result, out = bench("sim-blocked",
                                  write_pinned("corrupted.json", pinned))
        self.assertEqual(code, 1)
        self.assertFalse(result["correct"])
        self.assertEqual(result["failed"], 1)
        self.assertIn(f"cell {victim} ", out)
        self.assertIn("differs from the pinned one", out)


if __name__ == "__main__":
    unittest.main()
