"""A dropped machine is freed by reference counting alone.

The pipeline owns its policy and its runahead controller; both hold it
only through a :func:`weakref.proxy`.  So the moment an
:class:`~repro.core.processor.SMTProcessor` is dropped, its whole machine
(caches, predictor tables, register files, in-flight instructions) is
freed, with no cyclic collection needed.  A back-reference that slipped
back in (a strong ``self.pipeline``, or a bound method of the pipeline
cached on a policy) keeps every cell of a sweep alive until the next
full collection, and fails these tests.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.config import baseline
from repro.core.pipeline import SMTPipeline
from repro.core.processor import SMTProcessor
from repro.policies.registry import policy_names
from repro.sim.engine import SimEngine, SweepCell
from repro.sim.runner import RunSpec
from repro.trace.generator import generate_trace
from repro.trace.workloads import Workload

TRACE_LEN = 300


@pytest.fixture(params=["python", "auto"])
def kernel_tier(request, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL", request.param)
    return request.param


@pytest.fixture(scope="module")
def traces():
    return [generate_trace("mcf", TRACE_LEN, 1),
            generate_trace("art", TRACE_LEN, 2)]


def _cyclic_garbage() -> list:
    """Everything a full collection finds unreachable right now."""
    flags = gc.get_debug()
    gc.set_debug(gc.DEBUG_SAVEALL)
    try:
        gc.collect()
        garbage = list(gc.garbage)
        del gc.garbage[:]
    finally:
        gc.set_debug(flags)
    return garbage


@pytest.mark.parametrize("policy", policy_names())
def test_dropped_processor_frees_pipeline(policy, kernel_tier, traces):
    config = baseline().with_policy(policy)
    # The first machine of a shape derives and compiles its kernel,
    # which leaves one-off cyclic garbage (recursive closures of the
    # syntax-tree rewriter and of ast.dump); the machine measured
    # below reuses that kernel.
    SMTProcessor(config, traces).run()
    gc.collect()
    enabled = gc.isenabled()
    gc.disable()
    try:
        proc = SMTProcessor(config, traces)
        proc.run()
        ref = weakref.ref(proc.pipeline)
        del proc
        assert ref() is None, (
            f"{policy}: the pipeline outlived its processor (a reference "
            f"cycle holds it until a cyclic collection)")
    finally:
        if enabled:
            gc.enable()
    assert _cyclic_garbage() == []


def test_serial_sweep_leaves_no_pipeline_alive():
    gc.collect()
    before = {id(obj) for obj in gc.get_objects()
              if isinstance(obj, SMTPipeline)}
    spec = RunSpec(trace_len=TRACE_LEN, seed=3, max_cycles=200_000)
    cells = [SweepCell.make(Workload("MEM2", ("swim", "art")), policy,
                            spec=spec)
             for policy in ("icount", "rat", "flush", "dcra")]
    enabled = gc.isenabled()
    gc.disable()
    try:
        engine = SimEngine()
        engine.run_cells(cells)
        assert engine.counters.simulated == len(cells)
        survivors = [obj for obj in gc.get_objects()
                     if isinstance(obj, SMTPipeline)
                     and id(obj) not in before]
    finally:
        if enabled:
            gc.enable()
    assert survivors == []


def test_policy_pipeline_is_weak(traces):
    proc = SMTProcessor(baseline().with_policy("rat"), traces)
    policy = proc.policy
    controller = proc.pipeline.runahead
    assert policy.pipeline.cycle == proc.pipeline.cycle
    del proc
    with pytest.raises(ReferenceError):
        policy.pipeline.cycle
    with pytest.raises(ReferenceError):
        controller._pipeline.cycle
