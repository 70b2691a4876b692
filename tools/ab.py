"""Paired A/B of the repository benchmark: this checkout against a base.

    python3 tools/ab.py --base main --workload sim-busy --pairs 5

The base revision is checked out into a temporary ``git worktree``
(removed when the script ends).  Per workload, ``simbench/run.py
--trace 0`` runs from the base worktree and from this checkout in turn,
flipping which side runs first from pair to pair; each copy imports
``repro`` from its own ``src/``.  The host's speed drifts between runs
by more than most changes move it, so only paired runs are compared.

Each pair's ratio of every end-to-end metric of ``BENCHMARK.json`` is
printed, oriented so that above 1 means this checkout is better, with
the ratios' median and quartiles.  Exit 1 when a run fails (the side is
named), or when the median ``sim_kips`` or ``peak_rss_mb`` ratio is
worse than the base by more than that metric's ``BENCHMARK.json``
bound.  To ask whether a layer pays, commit its switch-off on a
throwaway branch and pass that branch as ``--base``.  Standard library
only: nothing is imported from ``repro`` or ``simbench``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCHMARK = os.path.join(ROOT, "BENCHMARK.json")
#: Metrics whose median paired ratio decides the exit code.  The other
#: end-to-end metrics are printed only: ``wall_s`` moves with
#: ``sim_kips``, and ``setup_s`` spreads wider than its bound at CI's
#: one-pass run length (paired ratios 0.79-1.19 with identical code).
GATED = ("sim_kips", "peak_rss_mb")
SIDES = ("base", "change")


class SideFailed(Exception):
    """One side's benchmark run failed or gave no usable result."""


def load_benchmark(path=BENCHMARK):
    """``(metrics, workloads, run_seconds)`` from a BENCHMARK.json; each
    metric is its end-to-end entry (``name``, ``better``, ``bound``)."""
    with open(path, encoding="utf-8") as handle:
        document = json.load(handle)
    metrics = {entry["name"]: entry for entry in document["end_to_end"]}
    missing = [name for name in GATED if name not in metrics]
    if missing:
        raise ValueError(f"{path}: no end-to-end metric {missing}")
    workloads = [entry["name"] for entry in document["workloads"]]
    return metrics, workloads, document["run_seconds"]


def pair_order(index):
    """The sides of pair ``index`` in running order; the side that runs
    first alternates, so host drift within a pair favours neither."""
    return SIDES if index % 2 == 0 else SIDES[::-1]


def parse_result(side, returncode, stdout, metrics):
    """Metric values from the JSON last line of one simbench run."""
    lines = stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if result is not None and result["failed"]:
        raise SideFailed(f"{side} run failed {result['failed']} of "
                         f"{result['attempted']} outputs")
    if returncode != 0:
        raise SideFailed(f"{side} run exited with code {returncode}")
    if result is None:
        raise SideFailed(f"{side} run printed no JSON result")
    values = {}
    for name in metrics:
        value = result["metrics"].get(name, {}).get("value")
        if not isinstance(value, (int, float)) or value <= 0:
            raise SideFailed(f"{side} run reported {name}={value!r}")
        values[name] = value
    return values


def ratio(metric, base, change):
    """``change`` against ``base``, above 1 when the change is better."""
    return change / base if metric["better"] == "higher" else base / change


def floor(metric):
    """The lowest ratio within the bound: the change may be worse than
    the base by at most ``bound`` times the base value."""
    if metric["better"] == "higher":
        return 1.0 - metric["bound"]
    return 1.0 / (1.0 + metric["bound"])


def quartiles(values):
    """``(median, q1, q3)`` as statistics.quantiles gives them; a single
    value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def gate(metrics, ratios):
    """One message per gated metric whose median ratio is below its
    floor; ``ratios`` maps each metric to its per-pair ratios."""
    failures = []
    for name in GATED:
        median = quartiles(ratios[name])[0]
        if median < floor(metrics[name]):
            failures.append(
                f"{name} median ratio {median:.3f} is below "
                f"{floor(metrics[name]):.3f}: worse than the base by more "
                f"than its bound {metrics[name]['bound']}")
    return failures


def run_simbench(root, workload, seconds):
    """Run one side's benchmark; ``(returncode, stdout)``."""
    command = [sys.executable, os.path.join(root, "simbench", "run.py"),
               "--workload", workload, "--seconds", str(seconds),
               "--trace", "0"]
    child = subprocess.run(command, stdout=subprocess.PIPE, text=True)
    return child.returncode, child.stdout


def run_pairs(workload, pairs, seconds, roots, metrics, run=run_simbench,
              out=sys.stdout):
    """Per-metric lists of per-pair ratios for one workload.  ``roots``
    maps each side to its checkout; raises :class:`SideFailed`."""
    ratios = {name: [] for name in metrics}
    for index in range(pairs):
        values = {}
        for side in pair_order(index):
            returncode, stdout = run(roots[side], workload, seconds)
            values[side] = parse_result(side, returncode, stdout, metrics)
            shown = " ".join(f"{name}={value:.4g}"
                             for name, value in values[side].items())
            print(f"{workload} pair {index + 1} {side}: {shown}", file=out,
                  flush=True)
        for name, metric in metrics.items():
            ratios[name].append(ratio(metric, values["base"][name],
                                      values["change"][name]))
    return ratios


def report(workload, metrics, ratios, out=sys.stdout):
    for name, metric in metrics.items():
        median, q1, q3 = quartiles(ratios[name])
        pairs = " ".join(f"{value:.3f}" for value in ratios[name])
        print(f"{workload} {name} ({metric['better']} is better, bound "
              f"{metric['bound']}): ratios {pairs} | median {median:.3f} "
              f"q1 {q1:.3f} q3 {q3:.3f}", file=out)


def git(*args):
    return subprocess.run(["git", "-C", ROOT, *args], check=True,
                          stdout=subprocess.PIPE, text=True).stdout.strip()


def main(argv=None):
    metrics, workloads, run_seconds = load_benchmark()
    parser = argparse.ArgumentParser(
        description="Paired, alternating simbench runs of this checkout "
                    "against a base revision.")
    parser.add_argument("--base", required=True, metavar="REV",
                        help="the revision to compare against")
    parser.add_argument("--workload", action="append", choices=workloads,
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--pairs", type=int, default=5,
                        help="pairs of runs per workload (default: 5)")
    parser.add_argument("--seconds", type=float, default=run_seconds,
                        help="simbench --seconds of every run (default: "
                             f"{run_seconds}, as BENCHMARK.json runs it)")
    args = parser.parse_args(argv)
    if args.pairs < 1:
        parser.error("--pairs must be >= 1")
    scratch = tempfile.mkdtemp(prefix="ab-")
    worktree = os.path.join(scratch, "base")
    try:
        try:
            git("worktree", "add", "--detach", worktree, args.base)
        except subprocess.CalledProcessError:
            print(f"ab: cannot check out {args.base!r}", file=sys.stderr)
            return 2
        print(f"ab: base {args.base} = {git('rev-parse', args.base)}, "
              f"change = {ROOT} at {git('rev-parse', 'HEAD')}", flush=True)
        roots = {"base": worktree, "change": ROOT}
        failures = []
        for workload in args.workload or workloads:
            try:
                ratios = run_pairs(workload, args.pairs, args.seconds,
                                   roots, metrics)
            except SideFailed as error:
                print(f"ab: FAIL {workload}: {error}")
                return 1
            report(workload, metrics, ratios)
            failures += [f"{workload}: {text}"
                         for text in gate(metrics, ratios)]
    finally:
        subprocess.run(["git", "-C", ROOT, "worktree", "remove", "--force",
                        worktree], stderr=subprocess.DEVNULL)
        shutil.rmtree(scratch, ignore_errors=True)
    for text in failures:
        print(f"ab: FAIL {text}")
    if not failures:
        print(f"ab: ok ({', '.join(GATED)} within their bounds)")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
