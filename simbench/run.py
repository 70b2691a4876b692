"""The repository benchmark: host speed of the runahead SMT simulator.

    python3 simbench/run.py --workload sim-busy --seed 1 --seconds 20 \\
        --trace 0

Every pass of a workload runs in its own child process
(``worker.py``), serially, the way a user runs the program.  Passes
repeat until ``--seconds`` have gone by (at least one pass; a
``campaign`` pass alone takes longer), and setup is repeated in
setup-only children until three setups were timed.  Each metric is
the median over its passes; the lines before the last one give every
metric's quartiles and sample count, each cell's digest, the kernel
tier it ran on and the ``REPRO_*`` modes.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates
traced and untraced passes and reports the per-layer metrics: span self
times and simulated counters from the traced passes, the part of the
wall time no span covers, and the tracing overhead (traced minus
untraced wall time).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``failed``
counts cells and exhibits that raised, came back truncated, or whose
digest differs from ``pinned.json`` (at the default seed) or between
passes of this run.  The exit code is 0 when nothing failed, 1 when
something did and 2 when a pass crashed before giving a result (no
result is printed then).
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
sys.path.insert(0, HERE)

from worker import (DEFAULT_SEED, MODE_ENV_VARS, PINNED_PATH,  # noqa: E402
                    WORKLOADS)

#: End-to-end metric -> unit (BENCHMARK.json must agree).
END_TO_END = {
    "sim_kips": "kinst/s",
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metric -> unit (BENCHMARK.json must agree).
PER_LAYER = {
    "repro.import_s": "s",
    "trace.generate_s": "s",
    "trace.traces": "count",
    "core.construct_s": "s",
    "core.kernel_resolve_s": "s",
    "core.kernel_compiles": "count",
    "core.specialized_frac": "ratio",
    "core.run_s": "s",
    "core.host_ns_per_cycle": "ns",
    "core.host_ns_per_exec_inst": "ns",
    "core.skip_fraction": "ratio",
    "core.skip_jumps": "count",
    "core.macro_inst_frac": "ratio",
    "core.macro_abort_ratio": "ratio",
    "core.useful_exec_ratio": "ratio",
    "core.runahead_cycles_frac": "ratio",
    "mem.l2_mpki": "1/kinst",
    "mem.prefetch_useful_ratio": "ratio",
    "branch.mispredict_rate": "ratio",
    "policies.fetch_gated_frac": "1/cycle",
    "sim.store.read_s": "s",
    "sim.store.write_s": "s",
    "experiments.plan_s": "s",
    "experiments.regenerate_s": "s",
    "experiments.assemble_s": "s",
    "experiments.render_s": "s",
    "bench.non_run_share": "ratio",
    "bench.unattributed_s": "s",
    "bench.tracing_overhead_s": "s",
}

#: Setups timed per invocation (setup-only children fill up to this).
MIN_SETUPS = 3
#: No pass starts when it would likely end past this many seconds.
DEADLINE_S = 170.0


class PassCrashed(Exception):
    """A child pass exited without a record."""


def spawn(workload, seed, trace_len, pinned, deadline, trace=False,
          setup_only=False):
    """Run one pass in a child process; its record plus ``wall_s``."""
    command = [sys.executable, WORKER, "--workload", workload,
               "--seed", str(seed), "--pinned", pinned]
    if trace_len is not None:
        command += ["--trace-len", str(trace_len)]
    if trace:
        command.append("--trace")
    if setup_only:
        command.append("--setup-only")
    timeout = max(1.0, deadline - time.perf_counter())
    started = time.perf_counter()
    try:
        child = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                               text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise PassCrashed(f"{workload} pass timed out after "
                          f"{timeout:.0f}s") from None
    wall = time.perf_counter() - started
    lines = child.stdout.strip().splitlines()
    if child.returncode != 0 or not lines:
        raise PassCrashed(f"{workload} pass exited with code "
                          f"{child.returncode}")
    record = json.loads(lines[-1])
    record["wall_s"] = wall
    return record


def run_passes(args):
    """Spawn passes until ``--seconds`` are spent; returns
    ``(untraced, traced, setup_only)`` record lists."""
    started = time.perf_counter()
    deadline = started + DEADLINE_S
    untraced, traced, setups = [], [], []

    def go(**kwargs):
        return spawn(args.workload, args.seed, args.trace_len, args.pinned,
                     deadline, **kwargs)

    def fits(until):
        longest = max(r["wall_s"] for r in untraced + traced)
        return time.perf_counter() + longest <= min(until, deadline)

    def want_more(missing):
        """Another pass is due while one is missing, or while one more
        is expected to end within ``--seconds``."""
        return missing or fits(started + args.seconds)

    if args.trace:
        # The untraced pass that prices the tracing overhead is skipped
        # when it would not end before the deadline (a long campaign).
        while want_more(not traced or (not untraced and fits(deadline))):
            if len(traced) <= len(untraced) or not fits(deadline):
                traced.append(go(trace=True))
            else:
                untraced.append(go())
    else:
        while want_more(not untraced):
            untraced.append(go())
        while len(untraced) + len(setups) < MIN_SETUPS:
            setups.append(go(setup_only=True))
    return untraced, traced, setups


def quartiles(values):
    """(median, first quartile, third quartile) as statistics.quantiles
    gives them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return median, q1, q3


def check_outputs(passes):
    """Failures summed over passes, plus every cell or exhibit whose
    digest differs between passes of this run."""
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    messages = {}
    for record in passes:
        for output_id, texts in record["failures"].items():
            messages.setdefault(output_id, []).extend(texts)
    digests = {}
    for record in passes:
        for cell in record["cells"]:
            digests.setdefault(cell["id"], set()).add(cell["digest"])
        for name, digest in record["exhibits"].items():
            digests.setdefault(f"exhibit {name}", set()).add(digest)
    for output_id, seen in digests.items():
        if len(seen) > 1:
            failed += 1
            messages.setdefault(output_id, []).append(
                f"{len(seen)} different digests across passes")
    return attempted, min(failed, attempted), messages


def end_to_end(untraced, setups):
    return {
        "sim_kips": [p["committed"] / p["timed_s"] / 1000.0
                     if p["timed_s"] else 0.0 for p in untraced],
        "wall_s": [p["wall_s"] for p in untraced],
        "setup_s": [p["setup_s"] for p in untraced + setups],
        "peak_rss_mb": [p["peak_rss_mb"] for p in untraced],
    }


def per_layer(untraced, traced):
    samples = {name: [p["layers"][name] for p in traced]
               for name in PER_LAYER if name in traced[0]["layers"]}
    samples["bench.unattributed_s"] = [p["wall_s"] - p["span_self_total"]
                                       for p in traced]
    overhead = 0.0
    if untraced:
        overhead = (statistics.median(p["wall_s"] for p in traced)
                    - statistics.median(p["wall_s"] for p in untraced))
    else:
        print("simbench: no time left for an untraced pass; tracing "
              "overhead not measured (reported as 0)")
    samples["bench.tracing_overhead_s"] = [overhead]
    return samples


def report(args, passes, samples, units, attempted, failed, messages):
    """Human-readable lines ahead of the JSON result."""
    first = passes[0]
    print(f"simbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(passes)} pass(es) of {first['attempted']} outputs")
    modes = " ".join(f"{key}={'unset' if value is None else value}"
                     for key, value in sorted(first["modes"].items()))
    print(f"modes {modes}")
    stray = [name for name in MODE_ENV_VARS if first["modes"].get(name)]
    if stray:
        print(f"simbench: warning: {', '.join(stray)} set in the "
              f"environment; the run is not the default configuration",
              file=sys.stderr)
    for cell in first["cells"]:
        status = "; ".join(messages.get(cell["id"], [])) or "ok"
        print(f"cell {cell['id']} tier={cell.get('tier')} "
              f"macro_spec={cell.get('macro_spec')} "
              f"cycle_skip={cell.get('cycle_skip')} "
              f"digest={cell['digest']} {status}")
    for name, digest in sorted(first["exhibits"].items()):
        status = "; ".join(messages.get(f"exhibit {name}", [])) or "ok"
        print(f"exhibit {name} digest={digest} {status}")
    shown = {cell["id"] for cell in first["cells"]}
    shown.update(f"exhibit {name}" for name in first["exhibits"])
    for output_id, texts in sorted(messages.items()):
        if output_id not in shown:
            print(f"failure {output_id}: {'; '.join(texts)}")
    for name, values in samples.items():
        median, q1, q3 = quartiles(values)
        print(f"metric {name} median={median:.6g} q1={q1:.6g} "
              f"q3={q3:.6g} n={len(values)} unit={units[name]}")
    print(f"outputs attempted={attempted} failed={failed}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="Host-speed benchmark of the runahead SMT simulator.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-len", type=int,
                        help="override the workload's trace length "
                             "(smaller only for smoke tests)")
    parser.add_argument("--pinned", default=PINNED_PATH,
                        help="pinned digests file")
    args = parser.parse_args(argv)
    try:
        untraced, traced, setups = run_passes(args)
    except PassCrashed as error:
        print(f"simbench: {error}", file=sys.stderr)
        return 2
    passes = untraced + traced
    attempted, failed, messages = check_outputs(passes)
    if args.trace:
        samples, units = per_layer(untraced, traced), PER_LAYER
    else:
        samples, units = end_to_end(untraced, setups), END_TO_END
    report(args, passes, samples, units, attempted, failed, messages)
    metrics = {name: {"value": quartiles(values)[0], "unit": units[name]}
               for name, values in samples.items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
