"""Shape-space differential test: the derived kernels across machine shapes.

The golden digests pin 16 hand-picked cells; campaigns (the figure 4-6
sweeps above all) build machine shapes those cells never see.  Every
kernel is derived per shape, so this test draws shapes — ROB, issue
queue and FU sizes, MSHR entries, 1 to ``MAX_THREADS`` threads, every
registered policy (runahead on and off), cycle skipping on and off —
and requires the ``SimResult`` of the default tier to be bit-identical
to the python tier's on a short trace.
"""

from __future__ import annotations

import hashlib

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.config import KERNEL_ENV_VAR, baseline
from repro.core.kernel_gen import MAX_THREADS
from repro.core.processor import SMTProcessor
from repro.policies import policy_names
from repro.sim.kernels import python_run_loop, resolve_run_loop
from repro.sim.store import canonical_json
from repro.trace.generator import generate_trace

BENCHMARKS = ("art", "mcf", "applu", "twolf", "gzip", "bzip2", "eon",
              "gcc", "ammp", "apsi")

#: Truncate every run here: both tiers must truncate at the same cycle,
#: and the cap keeps a starved shape from running to the deadlock guard.
MAX_CYCLES = 20_000
TRACE_LEN = 120


shapes = st.fixed_dictionaries({
    "policy": st.sampled_from(policy_names()),
    "benchmarks": st.lists(st.sampled_from(BENCHMARKS), min_size=1,
                           max_size=MAX_THREADS),
    "seed": st.integers(1, 50),
    "cycle_skip": st.booleans(),
    "overrides": st.fixed_dictionaries({
        "rob_size": st.sampled_from((16, 32, 48, 96, 256, 512)),
        "int_iq_size": st.integers(4, 64),
        "fp_iq_size": st.integers(4, 64),
        "ls_iq_size": st.integers(4, 64),
        "int_units": st.integers(1, 6),
        "fp_units": st.integers(1, 4),
        "ldst_units": st.integers(1, 4),
        "mshr_entries": st.integers(1, 32),
    }),
})


def _run(shape, tier, monkeypatch):
    monkeypatch.setenv(KERNEL_ENV_VAR, tier)
    traces = [generate_trace(name, TRACE_LEN, shape["seed"])
              for name in shape["benchmarks"]]
    config = baseline().with_policy(shape["policy"], **shape["overrides"])
    processor = SMTProcessor(config, traces)
    processor.pipeline.cycle_skip = shape["cycle_skip"]
    loop = resolve_run_loop(processor.pipeline)
    result = processor.run(min_passes=1, max_cycles=MAX_CYCLES)
    payload = canonical_json(result.to_dict())
    return loop, hashlib.sha256(payload.encode("utf-8")).hexdigest()


def test_max_threads_fits_the_baseline_register_files():
    assert baseline().max_threads() >= MAX_THREADS


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shape=shapes)
def test_default_tier_matches_python_tier(shape, monkeypatch):
    _loop, reference = _run(shape, "python", monkeypatch)
    loop, actual = _run(shape, "auto", monkeypatch)
    # Every drawn shape is covered: the default leg ran a kernel.
    assert loop is not python_run_loop
    assert actual == reference, f"tiers diverged on {shape}"


def test_widest_covered_machine_runs_a_kernel(monkeypatch):
    shape = {"policy": "rat", "benchmarks": list(BENCHMARKS[:MAX_THREADS]),
             "seed": 3, "cycle_skip": True, "overrides": {}}
    _loop, reference = _run(shape, "python", monkeypatch)
    loop, actual = _run(shape, "auto", monkeypatch)
    assert loop is not python_run_loop
    assert actual == reference
