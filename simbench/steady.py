"""Steadiness check: run the benchmark over several seeds and compare
each end-to-end metric's spread with its bound in BENCHMARK.json.

    python3 simbench/steady.py --workloads sim-busy campaign --seeds 5

For every workload and metric it prints the median, the quartiles as
``statistics.quantiles(values, n=4)`` gives them, the sample count and
the spread (third minus first quartile, as a share of the median).  A
spread above a third of the metric's bound is flagged ``WIDE``; above
the bound, ``OVER`` (``setup_s`` is exempt, as only its median is
compared between commits).  The exit code is 1 when a run failed or a
spread is over its bound.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    status = 0
    for workload in args.workloads:
        values = {name: [] for name in bounds}
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            command = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0"]
            child = subprocess.run(command, cwd=ROOT, text=True,
                                   stdout=subprocess.PIPE)
            lines = child.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else None
            if child.returncode != 0 or result is None \
                    or not result["correct"]:
                print(f"{workload} seed {seed}: FAILED "
                      f"(exit {child.returncode})")
                status = 1
                continue
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            print(f"{workload} seed {seed}: " + " ".join(
                f"{name}={values[name][-1]:.4g}" for name in bounds),
                flush=True)
        for name, bound in bounds.items():
            if len(values[name]) < 2:
                continue
            q1, median, q3 = statistics.quantiles(values[name], n=4)
            spread = (q3 - q1) / median
            flag = "ok"
            if spread > bound and name != "setup_s":
                flag, status = "OVER", 1
            elif spread > bound / 3:
                flag = "WIDE"
            print(f"{workload} {name}: median={median:.4g} q1={q1:.4g} "
                  f"q3={q3:.4g} n={len(values[name])} spread={spread:.3f} "
                  f"bound={bound} {flag}", flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
