"""Tier selection and the derived-kernel tier's machinery.

Bit-identity of the derived kernels is pinned mostly elsewhere (the
golden digests, the advance-vs-step fuzz and the shape-space test all
run per tier); this module covers the *selection* machinery: the
``REPRO_KERNEL`` knob, the CLI flag, fallback for uncovered policies
and source-less installs (never an error), per-process memoization by
machine shape, per-``run()`` re-resolution of the mutable key folds,
knob propagation into process-pool workers, and the import-time check
the FU-kind fold rests on.  It also pins python-vs-kernel identity on
the machine's seam scenarios — mispredict redirects, MSHR-full
requeues, runahead entry and exit, and a resource-squeezed machine —
each with its premise asserted so a drifted workload cannot hollow the
test out.
"""

from __future__ import annotations

import importlib
import json
import os

import pytest

from repro import isa
from repro.config import KERNEL_ENV_VAR, KERNEL_MODES, baseline, kernel_mode
from repro.core import kernel_gen, pipeline
from repro.core.kernel_cache import (cache_info, clear_cache,
                                     kernel_filename, specialized_run_loop)
from repro.core.kernel_gen import specialization_key
from repro.core.processor import SMTProcessor
from repro.errors import ConfigError
from repro.policies.icount import ICountPolicy
from repro.sim.kernels import python_run_loop, resolve_run_loop
from repro.trace.generator import generate_trace


def _processor(policy="icount", benchmarks=("art", "mcf"),
               trace_len=200, **overrides):
    traces = [generate_trace(name, trace_len, 1) for name in benchmarks]
    return SMTProcessor(baseline().with_policy(policy, **overrides),
                        traces)


# --- the environment knob ---------------------------------------------------


def test_kernel_mode_env_values(monkeypatch):
    monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
    assert kernel_mode() == "auto"
    for value in ("auto", "python", " PYTHON "):
        monkeypatch.setenv(KERNEL_ENV_VAR, value)
        assert kernel_mode() == value.strip().lower()
    for value in ("fortran", "specialized"):
        monkeypatch.setenv(KERNEL_ENV_VAR, value)
        with pytest.raises(ConfigError):
            kernel_mode()


def test_cli_kernel_flag_sets_env(monkeypatch):
    from repro.cli import _apply_kernel, build_parser
    monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
    args = build_parser().parse_args(["table1", "--kernel", "python"])
    _apply_kernel(args)
    assert os.environ[KERNEL_ENV_VAR] == "python"
    # absent flag leaves the environment alone
    monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
    _apply_kernel(build_parser().parse_args(["table1"]))
    assert KERNEL_ENV_VAR not in os.environ


# --- selection --------------------------------------------------------------


def test_registered_tiers():
    """The knob and the CLI's --kernel flag accept the same two tiers."""
    from repro.cli import build_parser
    assert KERNEL_MODES == ("auto", "python")
    (action,) = [a for a in build_parser()._actions if a.dest == "kernel"]
    assert tuple(action.choices) == KERNEL_MODES


def test_python_mode_forces_portable_loop(monkeypatch):
    monkeypatch.setenv(KERNEL_ENV_VAR, "python")
    processor = _processor()
    assert resolve_run_loop(processor.pipeline) is python_run_loop


def test_auto_selects_specialized_for_covered_shape(monkeypatch):
    monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
    processor = _processor()
    loop = resolve_run_loop(processor.pipeline)
    assert loop is not python_run_loop
    assert loop.__kernel_key__ == specialization_key(processor.pipeline)


def test_resolution_rereads_mutable_switches(monkeypatch):
    """``cycle_skip`` is a mutable pipeline flag tests flip between
    runs; the key folds it, so re-resolving must yield the matching
    kernel variant, not the memoized first one."""
    monkeypatch.setenv(KERNEL_ENV_VAR, "auto")
    processor = _processor()
    with_skip = resolve_run_loop(processor.pipeline)
    processor.pipeline.cycle_skip = False
    without_skip = resolve_run_loop(processor.pipeline)
    assert with_skip is not without_skip
    assert with_skip.__kernel_key__.skip_enabled
    assert not without_skip.__kernel_key__.skip_enabled


# --- fallback: a request, never an error ------------------------------------


class OpaqueFetchOrder(ICountPolicy):
    """A third-party policy: overrides a kernel-folded hook outside
    ``repro.policies``, so the generator must refuse coverage."""

    def fetch_order(self, cycle):
        return list(reversed(super().fetch_order(cycle)))


def test_uncovered_policy_falls_back_to_python(monkeypatch):
    monkeypatch.setenv(KERNEL_ENV_VAR, "auto")
    traces = [generate_trace("art", 200, 1)]
    config = baseline()
    processor = SMTProcessor(config, traces,
                             policy=OpaqueFetchOrder(config))
    assert specialization_key(processor.pipeline) is None
    assert specialized_run_loop(processor.pipeline) is None
    assert resolve_run_loop(processor.pipeline) is python_run_loop
    # ...and the run itself completes: tier selection never errors.
    result = processor.run(min_passes=1, max_cycles=200_000)
    assert result.total_committed > 0


def test_fallback_matches_python_tier(monkeypatch):
    """The fallback is the python tier, bit for bit."""
    results = {}
    for mode in ("python", "auto"):
        monkeypatch.setenv(KERNEL_ENV_VAR, mode)
        traces = [generate_trace("art", 200, 1)]
        config = baseline()
        processor = SMTProcessor(config, traces,
                                 policy=OpaqueFetchOrder(config))
        results[mode] = processor.run(min_passes=1,
                                      max_cycles=200_000).to_dict()
    assert results["python"] == results["auto"]


def test_sourceless_install_falls_back_to_python(monkeypatch):
    """A python tier shipped without ``.py`` sources cannot be derived
    from: the covered shape runs on the portable loop instead."""
    monkeypatch.setattr(kernel_gen, "_PACKAGE_DERIVER",
                        kernel_gen.KernelDeriver(lambda relpath: None))
    monkeypatch.delenv(KERNEL_ENV_VAR, raising=False)
    clear_cache()
    processor = _processor()
    assert specialization_key(processor.pipeline) is not None
    assert resolve_run_loop(processor.pipeline) is python_run_loop


# --- memoization ------------------------------------------------------------


def test_kernels_memoized_per_shape():
    clear_cache()
    first = specialized_run_loop(_processor().pipeline)
    second = specialized_run_loop(_processor().pipeline)
    assert first is second
    assert len(cache_info()) == 1
    # A different machine shape compiles (and caches) a second kernel.
    other = specialized_run_loop(
        _processor(policy="rat", benchmarks=("art",)).pipeline)
    assert other is not first
    assert len(cache_info()) == 2


def test_kernel_source_attached():
    loop = specialized_run_loop(_processor().pipeline)
    assert "def _kernel_run(" in loop.__kernel_source__
    compile(loop.__kernel_source__, "<kernel-gen>", "exec")  # re-parses


def test_distinct_shapes_get_distinct_code_filenames():
    """Profilers and tracebacks key on ``co_filename``: each machine
    shape compiles under its own name, stable for equal keys."""
    first = specialized_run_loop(_processor().pipeline)
    other = specialized_run_loop(
        _processor(policy="rat", benchmarks=("art",)).pipeline)
    name = first.__code__.co_filename
    assert name != other.__code__.co_filename
    assert name == kernel_filename(first.__kernel_key__)
    assert name.startswith("<kernel-gen:") and name.endswith(">")
    assert len(name) == len("<kernel-gen:>") + 12


# --- tier identity on the machine's seam scenarios --------------------------


def _both_tiers(monkeypatch, policy, benchmarks, trace_len, seed,
                **overrides):
    """Run one cell under each tier; assert identical results and
    return the python-tier pipeline for premise checks."""
    results = {}
    pipelines = {}
    for mode in ("python", "auto"):
        monkeypatch.setenv(KERNEL_ENV_VAR, mode)
        traces = [generate_trace(name, trace_len, seed)
                  for name in benchmarks]
        config = baseline().with_policy(policy, **overrides)
        processor = SMTProcessor(config, traces)
        pipelines[mode] = processor.pipeline
        results[mode] = processor.run(min_passes=1,
                                      max_cycles=200_000).to_dict()
    # The auto leg really ran a derived kernel, not a fallback.
    assert resolve_run_loop(pipelines["auto"]) is not python_run_loop
    assert results["auto"] == results["python"]
    return pipelines["python"]


def test_tiers_agree_on_mispredict_redirect(monkeypatch):
    """A mispredict redirect squashes the fetch queue mid-stream."""
    pipeline = _both_tiers(monkeypatch, "icount", ("art", "mcf"), 400, 11)
    assert pipeline.predictor.mispredictions > 0, (
        "test premise broken: no branch ever mispredicted; pick "
        "another workload/seed")


def test_tiers_agree_on_mshr_full_requeue(monkeypatch):
    """A tiny MSHR file forces load reject/requeue windows."""
    pipeline = _both_tiers(monkeypatch, "rat", ("art", "mcf"), 400, 7,
                           mshr_entries=2)
    assert pipeline.mem.mshr.rejects > 0, (
        "test premise broken: no load was ever rejected; shrink "
        "mshr_entries further")


def test_tiers_agree_on_runahead_entry_exit(monkeypatch):
    """Runahead entry (at commit) and exit (checkpoint restore) flip
    the thread mode between dispatch stages."""
    pipeline = _both_tiers(monkeypatch, "rat", ("mcf", "art"), 400, 3)
    episodes = sum(thread.stats.runahead_episodes
                   for thread in pipeline.threads)
    assert episodes > 0, (
        "test premise broken: no runahead episode; pick a longer or "
        "more memory-bound workload")


def test_tiers_agree_on_squeezed_machine(monkeypatch):
    """A small ROB and LS queue keep dispatch chronically short of
    headroom."""
    pipeline = _both_tiers(monkeypatch, "rat", ("art", "mcf"), 400, 7,
                           rob_size=24, ls_iq_size=6)
    assert pipeline.gstats.dispatch_stalls > 0, (
        "test premise broken: dispatch never stalled; shrink the "
        "machine further")


# --- knob propagation into workers ------------------------------------------


def test_process_pool_workers_inherit_kernel_choice(monkeypatch):
    """The tier request travels to process-pool workers via the
    environment; the pooled results must be bit-identical to a serial
    python-tier run."""
    from repro.sim.engine import SimEngine, SweepCell
    from repro.sim.executors import ProcessPoolBackend, SerialBackend
    from repro.sim.runner import RunSpec
    from repro.trace.workloads import Workload

    spec = RunSpec(trace_len=240, seed=3, max_cycles=200_000)
    cells = [
        SweepCell.make(Workload("MEM2", ("art", "mcf")), "icount",
                       spec=spec),
        SweepCell.make(Workload("MEM2", ("art", "mcf")), "rat",
                       spec=spec),
    ]

    def fingerprints(runs):
        return [json.dumps(run.result.to_dict(), sort_keys=True)
                for run in runs]

    monkeypatch.setenv(KERNEL_ENV_VAR, "python")
    reference = fingerprints(
        SimEngine(backend=SerialBackend()).run_cells(cells))
    monkeypatch.setenv(KERNEL_ENV_VAR, "auto")
    pooled = fingerprints(
        SimEngine(backend=ProcessPoolBackend(jobs=2)).run_cells(cells))
    assert pooled == reference


# --- the import-time table check --------------------------------------------


def test_split_queue_and_fu_tables_refuse_import(monkeypatch):
    """The issue stage (and so every derived kernel) charges an
    instruction to the FU pool of its queue kind; tables that disagree
    must stop the import with an explicit raise (an ``assert`` would
    vanish under ``python -O``)."""
    split = list(isa.OP_FU_BY_CODE)
    split[0] = (split[0] + 1) % 3
    monkeypatch.setattr(isa, "OP_FU_BY_CODE", split)
    with pytest.raises(ImportError, match="queue kind == FU kind"):
        importlib.reload(pipeline)
    monkeypatch.undo()
    importlib.reload(pipeline)
