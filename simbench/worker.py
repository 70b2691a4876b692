"""One benchmark workload pass, run in a child process of ``run.py``.

The pass imports ``repro`` from the ``src/`` directory of the checkout
this file sits in, sets up (import, plan, cold trace generation and, on
the ``sim-*`` workloads, one kernel compile per machine shape), runs the
timed part, checks every output against ``pinned.json`` and prints one
JSON record as the last line of its standard output.  It drives the
program only through public calls: ``generate_trace``,
``SMTProcessor(...)``, ``SMTProcessor.run``, ``resolve_run_loop``,
``Campaign.plan``/``regenerate``, ``SimEngine`` with an injected
``DiskStore`` and ``ExhibitResult.render``.

With ``--trace`` the pass wraps those calls in spans (name, start, end,
parent), keeps them in memory, writes them to ``.simbench/`` at the end
and reports each layer's self time plus the simulated counters.

    python3 simbench/worker.py --workload sim-busy --seed 1 [--trace]
    python3 simbench/worker.py --record    # re-pin pinned.json (seed 1)
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import resource
import shutil
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
#: Scratch space inside the checkout: campaign stores, span files.
WORK = os.path.join(ROOT, ".simbench")
PINNED_PATH = os.path.join(HERE, "pinned.json")

#: Trace length per workload.  The campaign runs at 1500 instead of the
#: CLI default of 3000 so that a campaign pass (about 40 s) leaves the
#: benchmark's whole schedule of runs inside its time budget.
TRACE_LENS = {"sim-busy": 3000, "sim-blocked": 3000, "campaign": 1500}
MIN_PASSES = 1
MAX_CYCLES = 2_000_000
DEFAULT_SEED = 1

#: Cells of the two single-cell workloads: (id, benchmarks, policy).
#: Why these cells: see README.md.
SIM_WORKLOADS = {
    # The machine is busy nearly every cycle (skip fraction 0-0.07):
    # runahead threads execute far more than they commit.
    "sim-busy": (
        ("mem4-rat", ("applu", "art", "mcf", "twolf"), "rat"),
        ("mix4-rat", ("ammp", "applu", "apsi", "eon"), "rat"),
        ("mem2-rat", ("art", "mcf"), "rat"),
        ("ilp4-icount", ("gzip", "bzip2", "eon", "gcc"), "icount"),
    ),
    # Threads sit blocked on L2 misses: 56-78% of cycles are skipped.
    "sim-blocked": (
        ("mem2-stall", ("art", "mcf"), "stall"),
        ("mem2-flush", ("art", "mcf"), "flush"),
        ("mem2-icount", ("art", "mcf"), "icount"),
        ("mem4-stall", ("applu", "art", "mcf", "twolf"), "stall"),
        ("mem4-flush", ("applu", "art", "mcf", "twolf"), "flush"),
    ),
}

#: Trace seeds per cell in one pass.  A single trace seed makes a
#: pass's work swing by up to 30% from seed to seed (FAME runs until the
#: slowest thread finishes its trace); several seeds average that out.
SEEDS_PER_PASS = {"sim-busy": 3, "sim-blocked": 6}

CAMPAIGN = "campaign"
WORKLOADS = tuple(TRACE_LENS)

#: Environment knobs that change how (not what) the program runs.
MODE_ENV_VARS = ("REPRO_KERNEL", "REPRO_SPECULATE", "REPRO_FULL")


def trace_seeds(workload: str, seed: int):
    """The trace seeds one pass of ``workload`` simulates at ``seed``."""
    return [seed + 1000 * index
            for index in range(SEEDS_PER_PASS.get(workload, 1))]


class Tracer:
    """In-memory spans: ``[name, start, end, parent index]``.

    Disabled, :meth:`span` hands back one shared no-op context, so an
    untraced pass pays a method call per wrapped call and nothing more.
    """

    def __init__(self, enabled: bool) -> None:
        self.enabled = enabled
        self.spans = []
        self._stack = []
        self._null = contextlib.nullcontext()

    def span(self, name: str):
        return self._span(name) if self.enabled else self._null

    @contextlib.contextmanager
    def _span(self, name: str):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, parent])
        self._stack.append(index)
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def wrap(self, name: str, func):
        def traced(*args, **kwargs):
            with self.span(name):
                return func(*args, **kwargs)
        return traced

    def self_times(self):
        """Total self time per span name.  A span's self time is its
        duration minus the part its child spans cover."""
        covered = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent is not None:
                covered[parent] += end - start
        totals = {}
        for index, (name, start, end, _parent) in enumerate(self.spans):
            totals[name] = (totals.get(name, 0.0) + (end - start)
                            - covered[index])
        return totals


class Api:
    """The public surface of ``repro`` the benchmark uses, imported from
    this checkout's ``src/``.  Optional mechanisms (kernel tier, kernel
    cache, mode switches) may be absent; they resolve to None."""

    def __init__(self, workload: str) -> None:
        if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
            raise SystemExit(f"simbench: no repro package under {SRC}")
        sys.path.insert(0, SRC)
        import importlib
        import repro
        if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
            raise SystemExit(f"simbench: imported repro from "
                             f"{repro.__file__}, not from {SRC}")
        from repro import config
        from repro.core.processor import SMTProcessor
        from repro.sim.store import canonical_json
        from repro.trace.generator import generate_trace
        self.config = config
        self.baseline = config.baseline
        self.SMTProcessor = SMTProcessor
        self.generate_trace = generate_trace
        self.canonical_json = canonical_json
        self.kernels = _optional(importlib, "repro.sim.kernels")
        self.kernel_cache = _optional(importlib, "repro.core.kernel_cache")
        if workload == CAMPAIGN:
            from repro.experiments import (Campaign, ExhibitContext,
                                           exhibit_names, get_exhibit)
            from repro.sim.engine import SimEngine
            from repro.sim.runner import RunSpec
            from repro.sim import store
            self.Campaign = Campaign
            self.ExhibitContext = ExhibitContext
            self.exhibit_names = exhibit_names
            self.get_exhibit = get_exhibit
            self.SimEngine = SimEngine
            self.RunSpec = RunSpec
            self.DiskStore = store.DiskStore
            self.ExhibitRenderCache = store.ExhibitRenderCache
            self.exhibit_dir = getattr(store, "EXHIBIT_DIR", "exhibits")

    def digest(self, result) -> str:
        """sha256 of canonical ``SimResult.to_dict()``, the encoding of
        ``tests/test_golden_digest.py``."""
        payload = self.canonical_json(result.to_dict())
        return hashlib.sha256(payload.encode("utf-8")).hexdigest()

    def modes(self):
        """The ``REPRO_*`` knobs as set and as the program resolves them."""
        modes = {name: os.environ.get(name) for name in MODE_ENV_VARS}
        for resolver in ("kernel_mode", "speculation_mode"):
            func = getattr(self.config, resolver, None)
            modes[resolver] = func() if func is not None else None
        return modes

    def kernel_compiles(self):
        info = getattr(self.kernel_cache, "cache_info", None)
        return len(info()) if info is not None else None


def _optional(importlib, name: str):
    try:
        return importlib.import_module(name)
    except ImportError:
        return None


class TierRecorder:
    """Replaces ``repro.sim.kernels.resolve_run_loop`` (which
    ``SMTProcessor.run`` looks up on every call) with a wrapper that
    records the tier each run actually got; traced, it is also the
    ``core.kernel_resolve`` span.  Without the kernel registry every
    entry stays unknown (None)."""

    def __init__(self, api: Api, tracer: Tracer) -> None:
        self.entries = []
        kernels = api.kernels
        original = getattr(kernels, "resolve_run_loop", None)
        self.resolve = None
        if original is None:
            return
        python_loop = getattr(kernels, "python_run_loop", None)

        def resolve_run_loop(pipeline):
            with tracer.span("core.kernel_resolve"):
                loop = original(pipeline)
            self.entries.append({
                "tier": "python" if loop is python_loop else "specialized",
                "macro_spec": getattr(pipeline, "macro_spec", None),
                "cycle_skip": getattr(pipeline, "cycle_skip", None),
            })
            return loop

        kernels.resolve_run_loop = resolve_run_loop
        self.resolve = resolve_run_loop


UNKNOWN_TIER = {"tier": None, "macro_spec": None, "cycle_skip": None}


def cell_counters(processor, result):
    """Simulated counters of one finished cell.  Counters of optional
    mechanisms (cycle skipping, macro speculation) are None when the
    program no longer has them."""
    pipeline = processor.pipeline
    gstats = getattr(pipeline, "gstats", None)
    mem = getattr(getattr(pipeline, "mem", None), "stats", None) or ()
    stats = result.thread_stats

    def total(items, field):
        return sum(getattr(item, field, 0) for item in items)

    return {
        "cycles": result.cycles,
        "threads": len(stats),
        "committed": total(stats, "committed"),
        "executed": total(stats, "executed"),
        "dispatched": total(stats, "dispatched"),
        "branches": total(stats, "branches"),
        "mispredicts": total(stats, "mispredicts"),
        "runahead_cycles": total(stats, "runahead_cycles"),
        "l2_misses": sum(result.l2_misses),
        "prefetches": total(mem, "prefetches"),
        "useful_prefetches": total(mem, "useful_prefetches"),
        "fetch_conflicts": getattr(gstats, "fetch_conflicts", None),
        "skipped_cycles": getattr(pipeline, "skipped_cycles", None),
        "skip_jumps": getattr(pipeline, "skip_jumps", None),
        "macro_steps": getattr(gstats, "macro_steps", None),
        "macro_insts": getattr(gstats, "macro_insts", None),
        "macro_guard_aborts": getattr(gstats, "macro_guard_aborts", None),
    }


def counter_metrics(counters):
    """Per-layer ratios over a pass's cells.  An absent counter counts
    as 0 here: the mechanism it belongs to did no work."""
    def total(field):
        return sum(item.get(field) or 0 for item in counters)

    def ratio(num, den):
        return num / den if den else 0.0

    cycles = total("cycles")
    committed = total("committed")
    executed = total("executed")
    macro_steps = total("macro_steps")
    aborts = total("macro_guard_aborts")
    thread_cycles = sum(item["cycles"] * item["threads"]
                        for item in counters)
    return {
        "core.skip_fraction": ratio(total("skipped_cycles"), cycles),
        "core.skip_jumps": total("skip_jumps"),
        "core.macro_inst_frac": ratio(total("macro_insts"),
                                      total("dispatched")),
        "core.macro_abort_ratio": ratio(aborts, macro_steps + aborts),
        "core.useful_exec_ratio": ratio(committed, executed),
        "core.runahead_cycles_frac": ratio(total("runahead_cycles"),
                                           thread_cycles),
        "mem.l2_mpki": ratio(1000.0 * total("l2_misses"), committed),
        "mem.prefetch_useful_ratio": ratio(total("useful_prefetches"),
                                           total("prefetches")),
        "branch.mispredict_rate": ratio(total("mispredicts"),
                                        total("branches")),
        "policies.fetch_gated_frac": ratio(total("fetch_conflicts"), cycles),
    }


class Pass:
    """State shared by both kinds of pass."""

    def __init__(self, api, tracer, recorder, workload, seed, trace_len):
        self.api = api
        self.tracer = tracer
        self.recorder = recorder
        self.workload = workload
        self.seed = seed
        self.trace_len = trace_len
        self.traces = {}
        self.cells = []       # {"id", "digest", "committed", "error", ...}
        self.exhibits = {}    # exhibit name -> sha256 of its JSON document
        self.failures = {}    # failing cell/exhibit id -> messages
        self.counters = []

    def fail(self, output_id, message) -> None:
        self.failures.setdefault(output_id, []).append(message)

    def generate_traces(self, keys) -> None:
        for key in keys:
            if key not in self.traces:
                with self.tracer.span("trace.generate"):
                    self.traces[key] = self.api.generate_trace(*key)

    def finish_cell(self, cell_id, result, tier, counters=None):
        entry = {"id": cell_id, "digest": self.api.digest(result),
                 "committed": result.total_committed,
                 "truncated": bool(result.truncated), "error": None}
        entry.update(tier)
        if counters is not None:
            entry["counters"] = counters
            self.counters.append(counters)
        if result.truncated:
            self.fail(cell_id, f"truncated at {result.cycles} cycles")
        self.cells.append(entry)

    def fail_cell(self, cell_id, error):
        self.cells.append({"id": cell_id, "digest": None, "committed": 0,
                           "truncated": False, "error": error})
        self.fail(cell_id, error)

    def check(self) -> None:
        """Untimed checks after the timed part (campaign only)."""

    def cleanup(self) -> None:
        """Remove what the pass wrote (campaign only)."""


class SimPass(Pass):
    """``sim-busy`` / ``sim-blocked``: construct and run each cell."""

    def setup(self) -> None:
        self.plan = []
        for trace_seed in trace_seeds(self.workload, self.seed):
            for cell_id, benchmarks, policy in SIM_WORKLOADS[self.workload]:
                keys = [(name, self.trace_len, trace_seed)
                        for name in benchmarks]
                self.plan.append((f"{cell_id}@{trace_seed}", policy, keys))
        self.configs = {policy: self.api.baseline().with_policy(policy)
                        for _id, policy, _keys in self.plan}
        for _id, _policy, keys in self.plan:
            self.generate_traces(keys)
        # One kernel compile per machine shape, outside the timed part.
        shapes = {}
        for _id, policy, keys in self.plan:
            shapes.setdefault((policy, len(keys)), keys)
        for (policy, _threads), keys in shapes.items():
            with self.tracer.span("core.construct"):
                processor = self.api.SMTProcessor(
                    self.configs[policy], [self.traces[k] for k in keys])
            if self.recorder.resolve is not None:
                self.recorder.resolve(processor.pipeline)
        self.recorder.entries.clear()

    def timed(self) -> float:
        timed = 0.0
        span = self.tracer.span
        for cell_id, policy, keys in self.plan:
            traces = [self.traces[key] for key in keys]
            seen = len(self.recorder.entries)
            try:
                started = time.perf_counter()
                with span("core.construct"):
                    processor = self.api.SMTProcessor(self.configs[policy],
                                                      traces)
                with span("core.run"):
                    result = processor.run(min_passes=MIN_PASSES,
                                           max_cycles=MAX_CYCLES)
                timed += time.perf_counter() - started
            except Exception as error:  # a failing cell must not end the pass
                self.fail_cell(cell_id, f"{type(error).__name__}: {error}")
                continue
            resolved = self.recorder.entries[seen:]
            self.finish_cell(cell_id, result,
                             resolved[-1] if resolved else UNKNOWN_TIER,
                             cell_counters(processor, result))
        return timed


class CampaignPass(Pass):
    """``campaign``: the reduced ``repro all`` (one Table 2 workload per
    class, every exhibit) run serial into a fresh ``DiskStore``, every
    exhibit rendered, then a warm re-assembly from the filled store with
    the render cache bypassed."""

    def setup(self) -> None:
        api, tracer = self.api, self.tracer
        os.makedirs(WORK, exist_ok=True)
        self.tmp = tempfile.mkdtemp(prefix="campaign-", dir=WORK)
        self.store_root = os.path.join(self.tmp, "store")
        self.names = sorted(api.exhibit_names())
        if tracer.enabled:
            self._instrument()
        self.ctx = api.ExhibitContext.make(
            api.baseline(), api.RunSpec(trace_len=self.trace_len,
                                        seed=self.seed), None, 1)
        self.engine = api.SimEngine(store=self._store())
        with tracer.span("experiments.plan"):
            self.campaign = api.Campaign(self.names, ctx=self.ctx,
                                         engine=self.engine)
            self.manifest = self.campaign.plan()
        self.generate_traces(
            (name, entry.cell.spec.trace_len, entry.cell.spec.seed)
            for entry in self.manifest.entries
            for name in entry.cell.workload.benchmarks)

    def _instrument(self) -> None:
        """Traced pass only: spans around the calls the campaign makes
        into the core and experiments layers."""
        tracer = self.tracer
        cls = self.api.SMTProcessor
        construct, run = cls.__init__, cls.run
        counters = self.counters

        def traced_init(processor, *args, **kwargs):
            with tracer.span("core.construct"):
                construct(processor, *args, **kwargs)

        def traced_run(processor, *args, **kwargs):
            with tracer.span("core.run"):
                result = run(processor, *args, **kwargs)
            counters.append(cell_counters(processor, result))
            return result

        cls.__init__, cls.run = traced_init, traced_run
        for name in self.names:
            exhibit = self.api.get_exhibit(name)
            exhibit.assemble = tracer.wrap("experiments.assemble",
                                           exhibit.assemble)

    def _store(self):
        store = self.api.DiskStore(self.store_root)
        return TracedStore(store, self.tracer) if self.tracer.enabled \
            else store

    def _render(self, results):
        documents = {}
        for name in self.names:
            with self.tracer.span("experiments.render"):
                results[name].render("text")
                documents[name] = results[name].render("json")
        return documents

    def timed(self) -> float:
        cache = self.api.ExhibitRenderCache(
            os.path.join(self.store_root, self.api.exhibit_dir))
        started = time.perf_counter()
        try:
            with self.tracer.span("experiments.regenerate"):
                results, _report = self.campaign.regenerate(cache=cache)
            documents = self._render(results)
        except Exception as error:  # the whole campaign failed
            self.error = f"{type(error).__name__}: {error}"
            return time.perf_counter() - started
        timed = time.perf_counter() - started
        self.error = None
        self.documents = documents
        return timed

    def check(self) -> None:
        """Untimed: collect cell results, then re-assemble warm."""
        entries = self.manifest.entries
        if self.error is not None:
            for entry in entries:
                self.fail_cell(self.cell_id(entry.cell), self.error)
            for name in self.names:
                self.exhibits[name] = None
                self.fail(f"exhibit {name}", self.error)
            return
        cells = self.manifest.cells()
        runs = self.engine.run_cells(cells, progress=False)
        tiers = self.recorder.entries
        if len(tiers) != len(cells):
            tiers = [UNKNOWN_TIER] * len(cells)
        counters = (self.counters if len(self.counters) == len(cells)
                    else [None] * len(cells))
        self.counters = []
        for cell, run, tier, count in zip(cells, runs, tiers, counters):
            self.finish_cell(self.cell_id(cell), run.result, tier, count)
        self.exhibits = {name: _sha(text)
                         for name, text in self.documents.items()}
        self._check_warm(cells)

    def _check_warm(self, cells) -> None:
        """Re-assemble every exhibit from the filled store alone."""
        api = self.api
        engine = api.SimEngine(store=self._store())
        with self.tracer.span("experiments.regenerate"):
            results, _report = api.Campaign(
                self.names, ctx=self.ctx, engine=engine).regenerate()
        documents = self._render(results)
        if engine.counters.simulated:
            self.fail("store", f"warm re-assembly simulated "
                               f"{engine.counters.simulated} cells "
                               f"instead of reading the store")
        runs = engine.run_cells(cells, progress=False)
        for entry, run in zip(self.cells, runs):
            if api.digest(run.result) != entry["digest"]:
                self.fail(entry["id"], "store round trip changed the result")
        for name in self.names:
            if _sha(documents[name]) != self.exhibits[name]:
                self.fail(f"exhibit {name}",
                          "warm re-assembly differs from the cold one")

    def cell_id(self, cell) -> str:
        """Stable cell name: class, benchmarks, policy and a hash of the
        config and run spec (the cache key also hashes the code salt)."""
        content = self.api.canonical_json({"config": cell.config.to_dict(),
                                           "spec": cell.spec.to_dict()})
        return (f"{cell.workload.klass}:{'+'.join(cell.workload.benchmarks)}"
                f"/{cell.policy}#{_sha(content)[:12]}")

    def cleanup(self) -> None:
        if hasattr(self, "tmp"):
            shutil.rmtree(self.tmp, ignore_errors=True)


class TracedStore:
    """A result store wrapper that spans every read and write."""

    def __init__(self, inner, tracer: Tracer) -> None:
        self.inner = inner
        self.tracer = tracer

    def get(self, key):
        with self.tracer.span("sim.store.read"):
            return self.inner.get(key)

    def contains(self, key):
        with self.tracer.span("sim.store.read"):
            return self.inner.contains(key)

    def put(self, key, result):
        with self.tracer.span("sim.store.write"):
            self.inner.put(key, result)

    def __getattr__(self, name):
        return getattr(self.inner, name)


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def load_pinned(path: str):
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def check_pinned(body, pinned) -> None:
    """Count every cell and exhibit whose digest differs from the pinned
    one as failed.  Applies only at the pinned seed; at the workload's
    own trace length a missing pin is a failure too."""
    if pinned is None or body.seed != pinned["seed"]:
        return
    expect = pinned["workloads"].get(body.workload, {})
    if expect.get("trace_len") != body.trace_len:
        if body.trace_len == TRACE_LENS[body.workload]:
            body.fail("pinned", f"no digests pinned at trace length "
                                f"{body.trace_len}")
        return
    cells = expect.get("cells", {})
    for cell in body.cells:
        if cell["digest"] is not None and \
                cell["digest"] != cells.get(cell["id"]):
            body.fail(cell["id"], f"digest {cell['digest'][:16]} differs "
                                  f"from the pinned one")
    exhibits = expect.get("exhibits", {})
    for name, digest in body.exhibits.items():
        if digest is not None and digest != exhibits.get(name):
            body.fail(f"exhibit {name}",
                      "JSON document differs from the pinned one")
    if len(cells) != len(body.cells) or len(exhibits) != len(body.exhibits):
        body.fail("pinned", f"{len(body.cells)} cells and "
                            f"{len(body.exhibits)} exhibits ran, "
                            f"{len(cells)} and {len(exhibits)} are pinned")


def run_pass(workload, seed, pinned, trace=False, setup_only=False,
             trace_len=None):
    """One pass; returns its record (see the module docstring)."""
    trace_len = trace_len or TRACE_LENS[workload]
    tracer = Tracer(trace)
    started = time.perf_counter()
    with tracer.span("repro.import"):
        api = Api(workload)
    recorder = TierRecorder(api, tracer)
    kind = CampaignPass if workload == CAMPAIGN else SimPass
    body = kind(api, tracer, recorder, workload, seed, trace_len)
    try:
        body.setup()
        record = {"workload": workload, "seed": seed,
                  "trace_len": trace_len,
                  "setup_s": time.perf_counter() - started,
                  "modes": api.modes()}
        if setup_only:
            return record
        timed_s = body.timed()
        body.check()
    finally:
        body.cleanup()
    check_pinned(body, pinned)
    committed = sum(cell["committed"] for cell in body.cells)
    attempted = len(body.cells) + len(body.exhibits)
    record.update({
        "timed_s": timed_s,
        "committed": committed,
        "cells": body.cells,
        "exhibits": body.exhibits,
        "failures": body.failures,
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "attempted": attempted,
        "failed": min(attempted, len(body.failures)),
    })
    if trace:
        record["layers"] = layer_metrics(tracer, body, timed_s)
        record["span_self_total"] = sum(tracer.self_times().values())
        record["span_file"] = write_spans(tracer, workload, seed)
    return record


#: Span name -> per-layer self-time metric.
SPAN_METRICS = {
    "repro.import": "repro.import_s",
    "trace.generate": "trace.generate_s",
    "core.construct": "core.construct_s",
    "core.kernel_resolve": "core.kernel_resolve_s",
    "core.run": "core.run_s",
    "sim.store.read": "sim.store.read_s",
    "sim.store.write": "sim.store.write_s",
    "experiments.plan": "experiments.plan_s",
    "experiments.regenerate": "experiments.regenerate_s",
    "experiments.assemble": "experiments.assemble_s",
    "experiments.render": "experiments.render_s",
}


def layer_metrics(tracer, body, timed_s):
    own = tracer.self_times()
    metrics = {metric: own.get(span, 0.0)
               for span, metric in SPAN_METRICS.items()}
    counters = [item for item in body.counters if item is not None]
    cycles = sum(item["cycles"] for item in counters)
    executed = sum(item["executed"] for item in counters)
    run_ns = metrics["core.run_s"] * 1e9
    tiers = [cell.get("tier") for cell in body.cells]
    in_run = sum(end - start for name, start, end, _parent in tracer.spans
                 if name == "core.run")
    metrics.update({
        "trace.traces": len(body.traces),
        "core.kernel_compiles": body.api.kernel_compiles() or 0,
        "core.specialized_frac": (sum(t == "specialized" for t in tiers)
                                  / len(tiers) if tiers else 0.0),
        "core.host_ns_per_cycle": run_ns / cycles if cycles else 0.0,
        "core.host_ns_per_exec_inst": run_ns / executed if executed else 0.0,
        # Share of the timed part spent outside SMTProcessor.run().
        "bench.non_run_share": 1.0 - in_run / timed_s if timed_s else 0.0,
    })
    metrics.update(counter_metrics(counters))
    return metrics


def write_spans(tracer, workload, seed) -> str:
    os.makedirs(WORK, exist_ok=True)
    path = os.path.join(WORK, f"spans-{workload}-seed{seed}-"
                              f"{os.getpid()}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fields": ["name", "start", "end", "parent"],
                   "spans": tracer.spans}, handle)
    return os.path.relpath(path, ROOT)


def record_pinned(path: str = PINNED_PATH) -> None:
    """Re-pin every digest at the default seed and trace length."""
    pinned = {"seed": DEFAULT_SEED, "workloads": {}}
    for workload in WORKLOADS:
        record = run_pass(workload, DEFAULT_SEED, None)
        if record["failures"]:
            raise SystemExit(f"{workload}: {record['failures']}")
        pinned["workloads"][workload] = {
            "trace_len": record["trace_len"],
            "cells": {cell["id"]: cell["digest"]
                      for cell in record["cells"]},
            "exhibits": record["exhibits"],
        }
        print(f"{workload}: {len(record['cells'])} cells, "
              f"{len(record['exhibits'])} exhibits", file=sys.stderr)
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(pinned, handle, indent=1, sort_keys=True)
        handle.write("\n")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace-len", type=int,
                        help="default: the workload's own (TRACE_LENS)")
    parser.add_argument("--pinned", default=PINNED_PATH)
    parser.add_argument("--record", action="store_true",
                        help="re-pin every digest at the default seed")
    args = parser.parse_args(argv)
    if args.record:
        record_pinned(args.pinned)
        return 0
    if args.workload is None:
        parser.error("--workload is required")
    record = run_pass(args.workload, args.seed, load_pinned(args.pinned),
                      trace=args.trace, setup_only=args.setup_only,
                      trace_len=args.trace_len)
    print(json.dumps(record, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
