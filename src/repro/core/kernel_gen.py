"""Derived kernels: config-folded pipeline run loops.

For a given *machine shape* — the config scalars the stage loops read
every cycle, plus the folded policy facts the pipeline derives at
construction — :func:`derive_kernel_source` produces Python source for
a complete ``run``-equivalent loop.  The stage bodies are not written
here: each one is *derived* from its ``SMTPipeline`` method by the
declared :data:`FRAGMENTS` operations (:mod:`repro.core.astrewrite`),
so the hot loop has one spelling, in ``core/pipeline.py``.  The only
hand-written parts are the per-run hoists and the loop template
(:func:`kernel_source`).  The result has:

* the per-cycle ``step()``/``advance()``/stage dispatch collapsed into
  one loop body (no bound-method calls between stages);
* every per-call hoist the stage methods perform (``self.rob``,
  ``self.mem.data_access_packed``, trace columns, …) done **once per
  run** instead of once per stage call;
* config scalars folded to literals (width, fetch width/buffer,
  ROB/IQ capacities, FU counts, cache latencies, thread count — the
  rotation index becomes ``now & (NT-1)`` for power-of-two NT);
* policy hook presence resolved at derivation time: a policy without
  ``on_cycle`` loses the per-cycle test entirely, a machine without
  runahead loses every ``thread.mode`` branch;
* the event-table call elided on cycles with no due bucket.

Correctness contract: the kernel leaves bit-identical machine state and
raises the same errors at the same cycles as the python tier.  Cold
paths (event processing on due cycles, folds, runahead transitions,
misprediction repair, the skip planner) stay out-of-line bound calls
into the pipeline.  An edit to a stage body reaches the kernel by
construction; an edit that breaks a declared operation (a concrete
``stmt`` pattern, a ``guard``) raises :class:`SubstitutionError` naming
the ``core/pipeline.py`` line, never a silent fallback.

Cost, measured on a 2-core x86 container: parsing the sources and
applying the key-independent operations runs once per process (about
70 ms), each feature combination (runahead, FP invalidation) once more
(about 20 ms), and each further key only binds its literals in the
text (about 2 ms) before the ``compile`` in
:mod:`repro.core.kernel_cache` (about 5 ms).

Kernels are keyed and memoized by :class:`KernelKey`
(:mod:`repro.core.kernel_cache`), so every pipeline with the same shape
shares one compiled loop; all run-specific objects arrive through the
``pipeline`` argument.  :func:`specialization_key` answers ``None`` for
anything outside the validated envelope (third-party policy classes,
more threads than :data:`MAX_THREADS`) — the caller falls back to the
python tier, never errors (see :mod:`repro.sim.kernels`).
"""

from __future__ import annotations

import ast
import gc
import operator
import os
import re
import textwrap
from heapq import heappush
from typing import Dict, List, NamedTuple, Optional, Tuple

from ..errors import DeadlockError, SimulationError
from ..isa import (IS_FP_BY_CODE, NO_REG, NUM_INT_ARCH_REGS,
                   OP_LATENCY_BY_CODE, OP_QUEUE_BY_CODE)
from .astrewrite import (SourceOf, SubstitutionError, apply_ops,
                         find_function, function_body, normalize, unparse)
from .dyninst import DynInst, InstState
from .hookspec import kernel_covers_policy
from .regfile import NEVER
from .thread import ThreadMode
from . import pipeline as pipeline_mod

#: Threads beyond this fall back to the python tier: the termination
#: test and stat sampler are unrolled per thread.  The validated
#: envelope reaches it: tests/test_shape_space.py draws 1 to 8 threads
#: against the python tier.
MAX_THREADS = 8


class KernelKey(NamedTuple):
    """The machine shape a generated kernel is specialized for.

    Everything here is either an :class:`SMTConfig` scalar (immutable
    after construction) or a pipeline fact derived once in
    ``SMTPipeline.__init__`` from the policy class/knobs.  Two pipelines
    with equal keys can share one compiled kernel; nothing run-specific
    may appear here.  ``skip_enabled`` derives from a mutable pipeline
    flag — the kernel resolver re-reads it per ``run()`` call, so
    flipping it between runs selects a different kernel rather than
    invalidating this one.
    """

    num_threads: int
    width: int
    fetch_threads: int
    fetch_buffer: int
    icache_latency: int
    dcache_latency: int
    l2_detect_latency: int
    rob_capacity: int
    iq_caps: Tuple[int, int, int]
    fu_caps: Tuple[int, int, int]
    uses_runahead: bool
    ra_fp_inval: bool
    has_on_cycle: bool
    skip_enabled: bool


def specialization_key(pipeline) -> Optional[KernelKey]:
    """The kernel key for this pipeline, or None if uncovered."""
    if not kernel_covers_policy(type(pipeline.policy)):
        return None
    if pipeline.num_threads > MAX_THREADS:
        return None
    fus = pipeline.fus
    queues = pipeline.queues
    return KernelKey(
        num_threads=pipeline.num_threads,
        width=pipeline._width,
        fetch_threads=pipeline._fetch_threads,
        fetch_buffer=pipeline._fetch_buffer_size,
        icache_latency=pipeline._icache_latency,
        dcache_latency=pipeline._dcache_latency,
        l2_detect_latency=pipeline._l2_detect_latency,
        rob_capacity=pipeline.rob.capacity,
        iq_caps=(queues[0].capacity, queues[1].capacity,
                 queues[2].capacity),
        fu_caps=(fus._capacity[0], fus._capacity[1], fus._capacity[2]),
        uses_runahead=pipeline._uses_runahead,
        ra_fp_inval=pipeline._ra_fp_inval,
        has_on_cycle=pipeline._policy_on_cycle is not None,
        skip_enabled=bool(pipeline.cycle_skip and pipeline._policy_skip_ok),
    )


def kernel_namespace() -> dict:
    """The globals dict a generated kernel executes against.

    Shares the *same objects* the interpreter tier uses — enum members
    compare by identity.
    """
    return {
        "DynInst": DynInst,
        "DeadlockError": DeadlockError,
        "SimulationError": SimulationError,
        "heappush": heappush,
        "OP_LATENCY_BY_CODE": OP_LATENCY_BY_CODE,
        "OP_QUEUE_BY_CODE": OP_QUEUE_BY_CODE,
        "IS_FP_BY_CODE": IS_FP_BY_CODE,
        "NO_REG": NO_REG,
        "NINT": NUM_INT_ARCH_REGS,
        "NEVER": NEVER,
        "DISPATCHED": InstState.DISPATCHED,
        "READY": InstState.READY,
        "ISSUED": InstState.ISSUED,
        "COMPLETED": InstState.COMPLETED,
        "RETIRED": InstState.RETIRED,
        "SQUASHED": InstState.SQUASHED,
        "RUNAHEAD_MODE": ThreadMode.RUNAHEAD,
        "NORMAL_MODE": ThreadMode.NORMAL,
        "DEADLOCK_WINDOW": pipeline_mod._DEADLOCK_WINDOW,
        "inst_age": operator.attrgetter("gseq"),
    }


def _rotation_expr(key: KernelKey) -> str:
    nt = key.num_threads
    if nt == 1:
        return "rot0"
    if nt & (nt - 1) == 0:
        return f"rotations[now & {nt - 1}]"
    return f"rotations[now % {nt}]"


def _emit_hoists(key: KernelKey, emit) -> None:
    """Per-run hoists: every object here is construction-stable (the
    attribute-stability audit in the PR notes; ``IssueQueue._ready`` is
    the one rebound attribute and is deliberately *not* hoisted)."""
    emit("    threads = pipeline.threads")
    for i in range(key.num_threads):
        emit(f"    t{i} = threads[{i}]")
        emit(f"    t{i}_stats = t{i}.stats")
        emit(f"    t{i}_held = t{i}.regs_held")
    if key.num_threads == 1:
        emit("    rot0 = pipeline._rotations[0]")
    else:
        emit("    rotations = pipeline._rotations")
    emit("    rob = pipeline.rob")
    emit("    rob_queues = rob._queues")
    emit("    rob_pt = rob.per_thread")
    emit("    queues = pipeline.queues")
    emit("    q0 = queues[0]")
    emit("    q1 = queues[1]")
    emit("    q2 = queues[2]")
    emit("    q0_pt = q0.per_thread")
    emit("    q1_pt = q1.per_thread")
    emit("    q2_pt = q2.per_thread")
    emit(f"    iq_caps = ({key.iq_caps[0]}, {key.iq_caps[1]}, "
         f"{key.iq_caps[2]})")
    emit("    int_file = pipeline.int_file")
    emit("    fp_file = pipeline.fp_file")
    emit("    available = pipeline.fus._available")
    emit("    issued = pipeline.fus.issued")
    emit("    events = pipeline._events")
    emit("    heap = pipeline._event_heap")
    emit("    fold_worklist = pipeline._fold_worklist")
    emit("    gstats = pipeline.gstats")
    emit("    mem = pipeline.mem")
    emit("    data_access = mem.data_access_packed")
    emit("    ifetch_packed = mem.ifetch_packed")
    emit("    predictor_predict = pipeline.predictor.predict")
    emit("    btb_lookup = pipeline.btb.lookup_and_insert")
    emit("    fetch_order = pipeline.policy.fetch_order")
    if key.has_on_cycle:
        emit("    policy_on_cycle = pipeline._policy_on_cycle")
    emit("    fold = pipeline._fold")
    emit("    drain_folds = pipeline._drain_folds")
    emit("    release_preg = pipeline._release_preg")
    emit("    resolve_mispred = pipeline._resolve_misprediction")
    emit("    on_l2_detected = pipeline._on_l2_detected")
    emit("    schedule = pipeline.schedule")
    if key.uses_runahead:
        emit("    runahead = pipeline.runahead")
        emit("    ra_exit = runahead.exit")
        emit("    should_enter = runahead.should_enter")
        emit("    on_runahead_store = runahead.on_runahead_store")
        emit("    ra_prefetch = runahead.prefetch")
        emit("    ra_stop_fetch = runahead.stop_fetch_on_l2_miss")
        emit("    load_forward = runahead.load_forward_validity")
        emit("    peek_data = mem.peek_data")
        emit("    enter_runahead = pipeline._enter_runahead")
    if key.skip_enabled:
        emit("    skip_target = pipeline._skip_target")
        emit("    skip_to = pipeline._skip_to")
    # Namespace constants pulled into fast locals.
    emit("    no_reg = NO_REG")
    emit("    nint = NINT")
    emit("    dispatched_state = DISPATCHED")
    emit("    ready_state = READY")
    emit("    issued_state = ISSUED")
    emit("    completed_state = COMPLETED")
    emit("    retired_state = RETIRED")
    if key.uses_runahead:
        emit("    ra_mode = RUNAHEAD_MODE")
        emit("    normal_mode = NORMAL_MODE")
    emit("    never = NEVER")
    emit("    op_latency = OP_LATENCY_BY_CODE")
    emit("    op_queue = OP_QUEUE_BY_CODE")
    if key.uses_runahead:
        emit("    is_fp_code = IS_FP_BY_CODE")
    emit("    cycle = pipeline.cycle")


def kernel_source(key: KernelKey, stages: Dict[str, str]) -> str:
    """The run-loop template for one shape, with the derived stage
    bodies (``stages``, keyed by fragment name) spliced in."""
    out = []
    emit = out.append

    def splice(name: str, depth: int = 2) -> None:
        out.append(textwrap.indent(stages[name], "    " * depth))

    emit("from heapq import heappop as heap_pop")
    emit("")
    emit("")
    emit("def _kernel_run(pipeline, min_passes, cap,")
    emit("                squashed_state=SQUASHED):")
    _emit_hoists(key, emit)
    emit("    while True:")
    done = " and ".join(f"t{i}.finished_passes >= min_passes"
                        for i in range(key.num_threads))
    emit(f"        if {done}:")
    emit("            return False")
    emit("        if cycle >= cap:")
    emit("            return True")
    emit("        now = cycle")
    if key.skip_enabled:
        emit("        gseq_before = pipeline._gseq")
        emit("        committed_before = gstats.committed")
        emit("        executed_before = gstats.executed")
    emit("        # ---- step: FU reset + events ----")
    emit(f"        available[0] = {key.fu_caps[0]}")
    emit(f"        available[1] = {key.fu_caps[1]}")
    emit(f"        available[2] = {key.fu_caps[2]}")
    # The event-table call is elided on cycles with no due bucket: such
    # a call pops nothing, prunes only keys <= now (none exist unless
    # heap[0] <= now) and returns before the fold drain.
    emit("        if heap and heap[0] <= now:")
    splice("events", depth=3)
    if key.has_on_cycle:
        emit("        policy_on_cycle(now)")
    emit("        # ---- commit stage ----")
    splice("commit")
    emit("        # ---- issue stage ----")
    splice("issue")
    emit("        # ---- dispatch stage ----")
    splice("dispatch")
    emit("        # ---- fetch stage ----")
    splice("fetch")
    emit("        # ---- stat sampling ----")
    splice("sample")
    emit("        cycle = now + 1")
    emit("        pipeline.cycle = cycle")
    emit("        if now - pipeline._last_commit_cycle > DEADLOCK_WINDOW:")
    emit("            raise DeadlockError(now,")
    emit("                                \"no instruction committed recently\")")
    if key.skip_enabled:
        emit("        # ---- advance: quiescence precheck + skip ----")
        emit("        if (pipeline._gseq != gseq_before")
        emit("                or gstats.committed != committed_before")
        emit("                or gstats.executed != executed_before):")
        emit("            continue")
        emit("        target = skip_target(cycle, cap)")
        emit("        if target > cycle:")
        emit("            skip_to(cycle, target)")
        emit("            cycle = target")
    return "\n".join(out) + "\n"


# ---------------------------------------------------------------------------
# Kernel derivation
#
# Each FRAGMENTS entry names one pipeline stage function and the
# operations (repro.core.astrewrite) that turn its body into the
# kernel's stage body.  The operations do not depend on the key: shape
# scalars become ``KEY_*`` placeholder names, bound per key by
# _key_constants, and the few key-dependent rewrites (runahead off,
# FP invalidation off, the per-thread sampler unroll) live in
# _key_subs.  So the expensive part, parsing and the declared ops, runs
# once per process; a key only pays for the binds, the folds,
# ``ast.unparse`` and ``compile``.

#: The representative shape of the lint's coverage classes: the
#: 4-thread runahead configuration with every optional feature enabled,
#: so no key-gated region is dead.
TIERSYNC_KEY = KernelKey(
    num_threads=4,
    width=8,
    fetch_threads=2,
    fetch_buffer=16,
    icache_latency=3,
    dcache_latency=2,
    l2_detect_latency=9,
    rob_capacity=96,
    iq_caps=(48, 40, 24),
    fu_caps=(6, 5, 4),
    uses_runahead=True,
    ra_fp_inval=True,
    has_on_cycle=True,
    skip_enabled=True,
)


#: _recycle_runahead_dest is open-coded by concrete rewrites in two
#: fragments (events and commit); this pins the body they transcribe.
_RECYCLE_GUARD = (
    "guard", "core/pipeline.py", "SMTPipeline._recycle_runahead_dest",
    "if inst.pdest == NO_REG:\n"
    "    return\n"
    "if inst.dest_arch < _NINT:\n"
    "    klass, file = (0, self.int_file)\n"
    "    arch_index = inst.dest_arch\n"
    "else:\n"
    "    klass, file = (1, self.fp_file)\n"
    "    arch_index = inst.dest_arch - _NINT\n"
    "preg = inst.pdest\n"
    "if file.pinned[preg]:\n"
    "    return\n"
    "front = thread.rename.front[klass]\n"
    "if front[arch_index] != preg:\n"
    "    return\n"
    "front[arch_index] = thread.rename.arch[klass][arch_index]\n"
    "if not file._allocated[preg]:\n"
    "    raise SimulationError(f'{file.name}: double release "
    "of p{preg}')\n"
    "file._allocated[preg] = False\n"
    "file.waiters[preg].clear()\n"
    "file._free.append(preg)\n"
    "thread.regs_held[klass] -= 1\n"
    "thread.arch_inv[inst.dest_arch] = inst.invalid\n"
    "inst.pdest = NO_REG"
)


FRAGMENTS = (
    {
        "name": "events",
        "source": ("core/pipeline.py", "SMTPipeline._process_events"),
        "covers": (
            ("core/pipeline.py", "SMTPipeline._process_events"),
            ("core/pipeline.py", "SMTPipeline._src_ready"),
            ("core/pipeline.py", "SMTPipeline._recycle_runahead_dest"),
        ),
        "subs": [
            # _src_ready is spliced per-waiter; its early returns
            # become loop continues.
            ("inline", ("core/pipeline.py", "SMTPipeline._src_ready"),
             "src_ready(waiter, now, preg, invalid)",
             "__INLINE__",
             {"bind": {"inst": "waiter"},
              "returns": ["continue", "continue"]}),
            # Per-run hoists (done once in _emit_hoists).
            ("stmt", "events = self._events", ""),
            ("stmt", "heap = self._event_heap", ""),
            ("stmt", "threads = self.threads", ""),
            ("stmt", "int_file = self.int_file", ""),
            ("stmt", "fp_file = self.fp_file", ""),
            ("stmt", "src_ready = self._src_ready", ""),
            # Early return inverted into a guard (under the kernel's
            # due-bucket test, see kernel_source).
            ("stmt",
             "if not bucket:\n"
             "    return\n"
             "__REST__",
             "if bucket:\n"
             "    __REST__"),
            ("rename", "heappop", "heap_pop"),
            ("rename", "_SQUASHED", "squashed_state"),
            ("rename", "_RETIRED", "retired_state"),
            ("rename", "_ISSUED", "issued_state"),
            ("rename", "_COMPLETED", "completed_state"),
            ("rename", "_DISPATCHED", "dispatched_state"),
            ("rename", "_READY", "ready_state"),
            ("rename", "_RUNAHEAD", "ra_mode"),
            ("rename", "OP_QUEUE_BY_CODE", "op_queue"),
            ("expr", "_EV_COMPLETE", "0"),
            ("expr", "_EV_L2_DETECT", "1"),
            ("expr", "NO_REG", "no_reg"),
            ("expr", "_NINT", "nint"),
            ("expr", "self.queues", "queues"),
            ("expr", "self._fold_worklist", "fold_worklist"),
            ("expr", "self._drain_folds", "drain_folds"),
            ("expr", "self._resolve_misprediction", "resolve_mispred"),
            ("expr", "self._on_l2_detected", "on_l2_detected"),
            # The fold-test local of _src_ready, named apart from the
            # other stages' ``mask``.
            ("rename", "mask", "wmask"),
            # _recycle_runahead_dest open-coded with the entry check
            # elided (pdest == preg != no_reg guarded just above)
            # and the class split reusing the already-computed
            # ``file`` local.
            _RECYCLE_GUARD,
            ("stmt",
             "if invalid and thread.mode is ra_mode:\n"
             "    self._recycle_runahead_dest(thread, inst)",
             "if invalid and thread.mode is ra_mode:\n"
             "    dest_arch = inst.dest_arch\n"
             "    if dest_arch < nint:\n"
             "        klass = 0\n"
             "        arch_index = dest_arch\n"
             "    else:\n"
             "        klass = 1\n"
             "        arch_index = dest_arch - nint\n"
             "    if not file.pinned[preg]:\n"
             "        front = thread.rename.front[klass]\n"
             "        if front[arch_index] == preg:\n"
             "            front[arch_index] = (\n"
             "                thread.rename.arch[klass][arch_index])\n"
             "            if not file._allocated[preg]:\n"
             "                raise SimulationError(\n"
             "                    f\"{file.name}: double release of "
             "p{preg}\")\n"
             "            file._allocated[preg] = False\n"
             "            file.waiters[preg].clear()\n"
             "            file._free.append(preg)\n"
             "            thread.regs_held[klass] -= 1\n"
             "            thread.arch_inv[dest_arch] = invalid\n"
             "            inst.pdest = no_reg"),
        ],
    },
    {
        "name": "commit",
        "source": ("core/pipeline.py", "SMTPipeline._commit_stage"),
        "covers": (
            ("core/pipeline.py", "SMTPipeline._commit_stage"),
            ("core/pipeline.py", "SMTPipeline._commit_thread"),
        ),
        "subs": [
            # _commit_thread spliced into the per-thread loop; its
            # returns become continue / commit-and-break / the
            # normal-vs-runahead else split / fall-through.
            ("inline", ("core/pipeline.py",
                        "SMTPipeline._commit_thread"),
             "budget = self._commit_thread(thread, now, budget)\n"
             "if budget <= 0:\n"
             "    break",
             "__INLINE__\n"
             "if budget <= 0:\n"
             "    break",
             {"returns": ["continue",
                          "stmts:budget -= 1\nbreak",
                          "else-rest",
                          "delete"]}),
            # Per-run hoists (done once in _emit_hoists).
            ("stmt", "rob = self.rob", ""),
            ("stmt", "gstats = self.gstats", ""),
            ("stmt", "int_file = self.int_file", ""),
            ("stmt", "fp_file = self.fp_file", ""),
            ("stmt", "recycle = self._recycle_runahead_dest", ""),
            ("rename", "budget", "commit_budget"),
            ("rename", "_RUNAHEAD", "ra_mode"),
            ("rename", "_NORMAL", "normal_mode"),
            ("rename", "_COMPLETED", "completed_state"),
            ("rename", "_RETIRED", "retired_state"),
            ("expr", "self._width", "KEY_WIDTH"),
            ("expr", "self._rotations[now % self.num_threads]",
             "KEY_ROTATION"),
            ("expr", "self.runahead.exit", "ra_exit"),
            ("expr", "rob._queues", "rob_queues"),
            ("expr", "rob.per_thread", "rob_pt"),
            ("expr", "NO_REG", "no_reg"),
            ("expr", "_NINT", "nint"),
            ("expr", "self._last_commit_cycle",
             "pipeline._last_commit_cycle"),
            ("expr", "self._release_preg", "release_preg"),
            ("expr", "self.mem.data_access_packed", "data_access"),
            ("expr", "self._uses_runahead", "KEY_USES_RUNAHEAD"),
            ("expr", "self.runahead.should_enter", "should_enter"),
            ("expr", "self._enter_runahead", "enter_runahead"),
            # _recycle_runahead_dest open-coded; klass/file reuse
            # the values computed for the old_pdest release, the
            # pinned test is folded into the entry check.
            _RECYCLE_GUARD,
            ("stmt",
             "if head.pdest != no_reg:\n"
             "    recycle(thread, head)",
             "preg = head.pdest\n"
             "if preg != no_reg and not file.pinned[preg]:\n"
             "    arch_index = (dest_arch if klass == 0\n"
             "                  else dest_arch - nint)\n"
             "    front = thread.rename.front[klass]\n"
             "    if front[arch_index] == preg:\n"
             "        front[arch_index] = (\n"
             "            thread.rename.arch[klass][arch_index])\n"
             "        if not file._allocated[preg]:\n"
             "            raise SimulationError(\n"
             "                f\"{file.name}: double release of "
             "p{preg}\")\n"
             "        file._allocated[preg] = False\n"
             "        file.waiters[preg].clear()\n"
             "        file._free.append(preg)\n"
             "        thread.regs_held[klass] -= 1\n"
             "        thread.arch_inv[dest_arch] = head.invalid\n"
             "        head.pdest = no_reg"),
        ],
    },
    {
        "name": "issue",
        "source": ("core/pipeline.py", "SMTPipeline._issue_stage"),
        "covers": (
            ("core/pipeline.py", "SMTPipeline._issue_stage"),
            ("core/pipeline.py", "SMTPipeline._issue_load"),
            ("core/pipeline.py", "SMTPipeline._issue_store"),
            ("core/pipeline.py", "SMTPipeline._issue_runahead_load"),
            ("core/thread.py", "ThreadContext.gate_fetch_until"),
            ("core/issue_queue.py", "IssueQueue.take_ready"),
        ),
        "subs": [
            # _issue_load spliced at its call; the runahead early
            # return turns the rest of the helper into the else
            # branch, the MSHR-full return becomes the loop continue.
            ("inline", ("core/pipeline.py", "SMTPipeline._issue_load"),
             "if not issue_load(thread, inst, queue, now):\n"
             "    continue",
             "__INLINE__",
             {"returns": ["else-rest", "continue", "delete"]}),
            ("inline", ("core/pipeline.py", "SMTPipeline._issue_store"),
             "issue_store(thread, inst, now)",
             "__INLINE__",
             {"returns": []}),
            # _issue_runahead_load and the gate_fetch_until it calls are
            # spliced in too.
            ("inline", ("core/pipeline.py",
                        "SMTPipeline._issue_runahead_load"),
             "self._issue_runahead_load(thread, inst, now)",
             "__INLINE__",
             {"returns": []}),
            ("inline", ("core/thread.py", "ThreadContext.gate_fetch_until"),
             "thread.gate_fetch_until(thread.runahead_trigger_ready)",
             "__INLINE__",
             {"bind": {"self": "thread",
                       "cycle": ("trigger", "thread.runahead_trigger_ready")},
              "returns": []}),
            ("expr", "self.runahead.load_forward_validity", "load_forward"),
            ("expr", "self.mem.peek_data", "peek_data"),
            ("expr", "self.runahead.stop_fetch_on_l2_miss", "ra_stop_fetch"),
            ("expr", "self._dcache_latency", "KEY_DCACHE_LATENCY"),
            # Per-run hoists (done once in _emit_hoists).
            ("stmt", "fus = self.fus", ""),
            ("stmt", "available = fus._available", ""),
            ("stmt", "issued = fus.issued", ""),
            ("stmt", "threads = self.threads", ""),
            ("stmt", "events = self._events", ""),
            ("stmt", "heap = self._event_heap", ""),
            ("stmt", "gstats = self.gstats", ""),
            ("stmt", "issue_load = self._issue_load", ""),
            ("stmt", "issue_store = self._issue_store", ""),
            ("stmt", "per_thread = queue.per_thread", ""),
            # The FU-kind lookup folds to the queue-kind literal
            # (OP_QUEUE/OP_FU coincide; checked by kernel_cache).
            ("stmt", "kind = OP_FU_BY_CODE[inst.op]", ""),
            ("rename", "budget", "limit"),
            ("rename", "cycle", "ccycle"),
            ("rename", "kind", "queue_kind"),
            ("rename", "_ISSUED", "issued_state"),
            ("rename", "_RUNAHEAD", "ra_mode"),
            ("rename", "OP_LATENCY_BY_CODE", "op_latency"),
            ("expr", "_EV_COMPLETE", "0"),
            ("expr", "_EV_L2_DETECT", "1"),
            ("expr", "self._event_heap", "heap"),
            ("expr", "self.schedule", "schedule"),
            ("expr", "self.mem.data_access_packed", "data_access"),
            ("expr", "self.runahead.on_runahead_store",
             "on_runahead_store"),
            ("expr", "self.runahead.prefetch", "ra_prefetch"),
            ("expr", "thread.tid", "tid"),
            ("expr", "self._l2_detect_latency", "KEY_L2_DETECT_LATENCY"),
            ("expr", "self._fold_worklist", "fold_worklist"),
            ("expr", "self._drain_folds", "drain_folds"),
            # Loop-level continues inverted into guard nesting.
            ("stmt",
             "queue = self.queues[queue_kind]\n"
             "if not queue._ready:\n"
             "    continue\n"
             "limit = available[queue_kind]\n"
             "if limit <= 0:\n"
             "    continue\n"
             "__REST__",
             "ready = queue._ready\n"
             "if ready:\n"
             "    limit = available[queue_kind]\n"
             "    if limit > 0:\n"
             "        __REST__"),
            # take_ready open-coded (its early returns are subsumed
            # by the guards above / the `if live:` nesting); the
            # guard pins the python-tier body.
            ("guard", "core/issue_queue.py", "IssueQueue.take_ready",
             "ready = self._ready\n"
             "if not ready:\n"
             "    return []\n"
             "for inst in ready:\n"
             "    if inst.state != _READY:\n"
             "        live = [inst for inst in ready if inst.state =="
             " _READY]\n"
             "        self._ready = live\n"
             "        break\n"
             "else:\n"
             "    live = ready\n"
             "if not live:\n"
             "    return []\n"
             "if len(live) > limit:\n"
             "    live.sort(key=_inst_age)\n"
             "    selected = live[:limit]\n"
             "    self._ready = live[limit:]\n"
             "else:\n"
             "    selected = live\n"
             "    self._ready = []\n"
             "if self._replay_blocked:\n"
             "    for inst in selected:\n"
             "        if inst.replay:\n"
             "            inst.replay = False\n"
             "            self._replay_blocked -= 1\n"
             "return selected"),
            ("stmt",
             "for inst in queue.take_ready(limit):\n"
             "    __BODY__",
             "for inst in ready:\n"
             "    if inst.state != ready_state:\n"
             "        live = [inst for inst in ready\n"
             "                if inst.state == ready_state]\n"
             "        queue._ready = live\n"
             "        break\n"
             "else:\n"
             "    live = ready\n"
             "if live:\n"
             "    if len(live) > limit:\n"
             "        live.sort(key=inst_age)\n"
             "        selected = live[:limit]\n"
             "        queue._ready = live[limit:]\n"
             "    else:\n"
             "        selected = live\n"
             "        queue._ready = []\n"
             "    if queue._replay_blocked:\n"
             "        for inst in selected:\n"
             "            if inst.replay:\n"
             "                inst.replay = False\n"
             "                queue._replay_blocked -= 1\n"
             "    for inst in selected:\n"
             "        __BODY__"),
            # The store's schedule() call is open-coded.
            ("stmt",
             "inst.complete_cycle = now + 1\n"
             "schedule(inst.complete_cycle, 0, inst)",
             "ccycle = now + 1\n"
             "inst.complete_cycle = ccycle\n"
             "bucket = events.get(ccycle)\n"
             "if bucket is None:\n"
             "    events[ccycle] = [(0, inst)]\n"
             "    heappush(heap, ccycle)\n"
             "else:\n"
             "    bucket.append((0, inst))"),
            ("unroll", "queue_kind",
             [{"queue_kind": str(qk), "queue": f"q{qk}",
               "per_thread": f"q{qk}_pt"}
              for qk in (2, 0, 1)]),
        ],
    },
    {
        "name": "dispatch",
        "source": ("core/pipeline.py", "SMTPipeline._dispatch_stage"),
        "covers": (
            ("core/pipeline.py", "SMTPipeline._dispatch_stage"),
            ("core/pipeline.py", "SMTPipeline._dispatch"),
            ("core/pipeline.py", "SMTPipeline._uncount"),
            ("core/thread.py", "ThreadContext.note_arch_invalid"),
        ),
        "subs": [
            # _dispatch spliced into the per-stage loop; False
            # returns become stall-and-break, the drop-at-decode
            # True return consumes the entry inline, the tail True
            # falls through to the shared popleft.
            ("inline", ("core/pipeline.py", "SMTPipeline._dispatch"),
             "if not dispatch(thread, fetch_queue[0], now):\n"
             "    self.gstats.dispatch_stalls += 1\n"
             "    break",
             "__INLINE__",
             {"bind": {"inst": ("inst", "fetch_queue[0]")},
              "returns": [
                  "stmts:self.gstats.dispatch_stalls += 1\nbreak",
                  "stmts:fetch_queue.popleft()\nbudget -= 1\n"
                  "continue",
                  "stmts:self.gstats.dispatch_stalls += 1\nbreak",
                  "stmts:self.gstats.dispatch_stalls += 1\nbreak",
                  "delete"]}),
            ("inline", ("core/pipeline.py", "SMTPipeline._uncount"),
             "self._uncount(inst)",
             "__INLINE__",
             {"returns": []}),
            ("guard", "core/thread.py",
             "ThreadContext.note_arch_invalid",
             "self.arch_inv[arch_reg] = invalid"),
            ("stmt", "thread.note_arch_invalid(inst.dest_arch, True)",
             "arch_inv[inst.dest_arch] = True"),
            # Per-run hoists (done once in _emit_hoists).
            ("stmt", "dispatch = self._dispatch", ""),
            ("stmt", "rob = self.rob", ""),
            # tid is hoisted once per thread iteration.
            ("stmt", "fetch_queue = thread.fetch_queue",
             "fetch_queue = thread.fetch_queue\n"
             "tid = thread.tid"),
            ("rename", "budget", "dispatch_budget"),
            ("rename", "_RUNAHEAD", "ra_mode"),
            ("rename", "_COMPLETED", "completed_state"),
            ("rename", "_DISPATCHED", "dispatched_state"),
            ("rename", "_READY", "ready_state"),
            ("rename", "IS_FP_BY_CODE", "is_fp_code"),
            ("rename", "OP_QUEUE_BY_CODE", "op_queue"),
            ("expr", "self._width", "KEY_WIDTH"),
            ("expr", "self._rotations[now % self.num_threads]",
             "KEY_ROTATION"),
            ("expr", "self._ra_fp_inval", "KEY_RA_FP_INVAL"),
            ("expr", "_SYNC_CODE", str(pipeline_mod._SYNC_CODE)),
            ("expr", "rob.capacity", "KEY_ROB_CAPACITY"),
            ("expr", "rob._queues[inst.tid]", "robq"),
            ("expr", "rob.per_thread[inst.tid]", "rob_pt[tid]"),
            ("expr", "self.threads[inst.tid]", "thread"),
            ("expr", "inst.tid", "tid"),
            ("expr", "self.queues", "queues"),
            ("expr", "self.int_file", "int_file"),
            ("expr", "self.fp_file", "fp_file"),
            ("expr", "self.gstats", "gstats"),
            ("expr", "self._fold", "fold"),
            ("expr", "NO_REG", "no_reg"),
            ("expr", "_NINT", "nint"),
            ("expr", "_NEVER", "never"),
            ("expr", "front[0]", "front0"),
            ("expr", "front[1]", "front1"),
            ("expr", "self._fold_worklist", "fold_worklist"),
            ("expr", "self._drain_folds", "drain_folds"),
            ("stmt", "thread.stats.dispatched += 1",
             "stats.dispatched += 1"),
            ("stmt", "thread.stats.folded += 1",
             "stats.folded += 1"),
            # The drop-at-decode temp folds into the test.
            ("stmt",
             "drop_at_decode = __COND__\n"
             "if drop_at_decode:\n"
             "    __BODY__",
             "if __COND__:\n"
             "    __BODY__"),
            # Queue-capacity check against the folded caps tuple.
            ("stmt",
             "queue = queues[op_queue[op]]\n"
             "if queue.size >= queue.capacity:\n"
             "    gstats.dispatch_stalls += 1\n"
             "    break",
             "qk = op_queue[op]\n"
             "queue = queues[qk]\n"
             "if queue.size >= iq_caps[qk]:\n"
             "    gstats.dispatch_stalls += 1\n"
             "    break"),
            # The per-call rename hoists move out of the while loop
            # (re-added by the wrapper below).
            ("stmt",
             "pending = 0\n"
             "arch_inv = thread.arch_inv\n"
             "front = thread.rename.front\n"
             "arch = inst.src1_arch",
             "pending = 0\n"
             "arch = inst.src1_arch"),
            # The front read sinks below the ROB guard (which does
            # not use it) — the kernel stalls before peeking.
            ("stmt",
             "inst = fetch_queue[0]\n"
             "if rob._occupancy >= KEY_ROB_CAPACITY:\n"
             "    gstats.dispatch_stalls += 1\n"
             "    break",
             "if rob._occupancy >= KEY_ROB_CAPACITY:\n"
             "    gstats.dispatch_stalls += 1\n"
             "    break\n"
             "inst = fetch_queue[0]"),
            # The per-stage while gains the guarded hoist wrapper.
            ("stmt",
             "while dispatch_budget > 0 and fetch_queue:\n"
             "    __BODY__\n"
             "if dispatch_budget <= 0:\n"
             "    break",
             "if dispatch_budget > 0 and fetch_queue:\n"
             "    robq = rob_queues[tid]\n"
             "    stats = thread.stats\n"
             "    arch_inv = thread.arch_inv\n"
             "    front = thread.rename.front\n"
             "    front0 = front[0]\n"
             "    front1 = front[1]\n"
             "    while dispatch_budget > 0 and fetch_queue:\n"
             "        __BODY__\n"
             "if dispatch_budget <= 0:\n"
             "    break"),
        ],
    },
    {
        "name": "fetch",
        "source": ("core/pipeline.py", "SMTPipeline._fetch_stage"),
        "covers": (
            ("core/pipeline.py", "SMTPipeline._fetch_stage"),
            ("core/pipeline.py", "SMTPipeline._fetch_thread"),
            ("core/thread.py", "ThreadContext.block_fetch_until"),
        ),
        "subs": [
            # _fetch_thread spliced per thread; the buffer-full
            # return becomes the loop continue, the tail return
            # merges into the `if count:` epilogue below.
            ("inline", ("core/pipeline.py",
                        "SMTPipeline._fetch_thread"),
             "taken = self._fetch_thread(thread, now,"
             " width - fetched_total)\n"
             "if taken > 0:\n"
             "    fetched_total += taken\n"
             "    threads_used += 1",
             "__INLINE__",
             {"bind": {"limit": ("limit", "width - fetched_total")},
              "returns": ["continue", "delete"]}),
            ("inline", ("core/thread.py", "ThreadContext.block_fetch_until"),
             "thread.block_fetch_until(complete)",
             "__INLINE__",
             {"bind": {"self": "thread", "cycle": "complete"},
              "returns": []}),
            ("inline", ("core/thread.py", "ThreadContext.block_fetch_until"),
             "thread.block_fetch_until(now + 2)",
             "__INLINE__",
             {"bind": {"self": "thread", "cycle": ("blocked", "now + 2")},
              "returns": []}),
            # Per-run hoists (done once in _emit_hoists) and the
            # width/fetch-thread folds.
            ("stmt", "width = self._width", ""),
            ("stmt", "fetch_threads = self._fetch_threads", ""),
            ("stmt", "threads = self.threads", ""),
            ("stmt", "tid = thread.tid", ""),
            ("stmt", "ifetch_packed = self.mem.ifetch_packed", ""),
            ("rename", "_RUNAHEAD", "ra_mode"),
            ("rename", "width", "KEY_WIDTH"),
            ("rename", "fetch_threads", "KEY_FETCH_THREADS"),
            ("expr", "self.policy.fetch_order", "fetch_order"),
            ("expr", "self.gstats", "gstats"),
            ("expr", "self._fetch_buffer_size", "KEY_FETCH_BUFFER"),
            ("expr", "self._icache_latency", "KEY_ICACHE_LATENCY"),
            ("expr", "self._gseq", "pipeline._gseq"),
            ("expr", "self.btb.lookup_and_insert", "btb_lookup"),
            ("expr", "self.predictor.predict", "predictor_predict"),
            # The fetch budget resolves after the buffer check (the
            # kernel bails before computing it).
            ("stmt",
             "limit = KEY_WIDTH - fetched_total\n"
             "fetch_queue = thread.fetch_queue\n"
             "buffer_room = KEY_FETCH_BUFFER - len(fetch_queue)\n"
             "if buffer_room <= 0:\n"
             "    continue",
             "fetch_queue = thread.fetch_queue\n"
             "buffer_room = KEY_FETCH_BUFFER - len(fetch_queue)\n"
             "if buffer_room <= 0:\n"
             "    continue\n"
             "limit = KEY_WIDTH - fetched_total"),
            # taken == count: the caller's accounting merges into
            # the fetch-block epilogue.
            ("stmt",
             "if count:\n"
             "    pipeline._gseq = gseq\n"
             "    thread.seq = seq\n"
             "    thread.icount += count\n"
             "    stats.fetched += count",
             "if count:\n"
             "    pipeline._gseq = gseq\n"
             "    thread.seq = seq\n"
             "    thread.icount += count\n"
             "    stats.fetched += count\n"
             "    fetched_total += count\n"
             "    threads_used += 1"),
        ],
    },
    {
        "name": "sample",
        "source": ("core/pipeline.py", "SMTPipeline._sample_stats"),
        "covers": (("core/pipeline.py", "SMTPipeline._sample_stats"),),
        "subs": [
            # The kernel reads the hoisted per-thread stats slots
            # directly instead of re-binding them per cycle.
            ("stmt", "stats = thread.stats", ""),
            ("expr", "thread.regs_held", "thread_held"),
            ("rename", "_RUNAHEAD", "ra_mode"),
            ("expr", "self.gstats", "gstats"),
        ],
    },
)


def _key_constants(key: KernelKey) -> Dict[str, str]:
    """What each ``KEY_*`` placeholder in FRAGMENTS reads for ``key``."""
    return {
        "KEY_WIDTH": str(key.width),
        "KEY_FETCH_THREADS": str(key.fetch_threads),
        "KEY_FETCH_BUFFER": str(key.fetch_buffer),
        "KEY_ICACHE_LATENCY": str(key.icache_latency),
        "KEY_DCACHE_LATENCY": str(key.dcache_latency),
        "KEY_L2_DETECT_LATENCY": str(key.l2_detect_latency),
        "KEY_ROB_CAPACITY": str(key.rob_capacity),
        "KEY_USES_RUNAHEAD": str(key.uses_runahead),
        "KEY_RA_FP_INVAL": str(key.ra_fp_inval),
        "KEY_ROTATION": _rotation_expr(key),
    }


#: A placeholder left in the derived text (the literal ones are bound
#: there; the feature ones are bound in the AST before normalization).
_PLACEHOLDER = re.compile(r"\bKEY_[A-Z0-9_]+\b")


def _feature_subs(uses_runahead: bool,
                  ra_fp_inval: bool) -> Dict[str, List[Tuple]]:
    """The operations a feature combination adds, by fragment name."""
    subs: Dict[str, List[Tuple]] = {frag["name"]: [] for frag in FRAGMENTS}
    if not uses_runahead:
        # No thread ever leaves normal mode: the mode tests fold, and
        # normalization drops the runahead branches they guard.
        for name in ("events", "commit", "issue", "dispatch", "sample"):
            subs[name].append(("expr", "thread.mode is ra_mode", "False"))
        subs["commit"].append(
            ("expr", "thread.mode is normal_mode", "True"))
        subs["fetch"] += [
            ("stmt", "in_runahead = thread.mode is ra_mode", ""),
            ("expr", "in_runahead", "False"),
            # A DynInst starts with runahead=False.
            ("stmt", "inst.runahead = False", ""),
        ]
    elif not ra_fp_inval:
        # Only SYNC drops at decode, and SYNC writes no FP register.
        subs["dispatch"].append(
            ("stmt",
             "if is_fp_code[op] and inst.dest_arch != no_reg:\n"
             "    arch_inv[inst.dest_arch] = True",
             ""))
    return subs


def _located(exc: SubstitutionError, source_of: SourceOf,
             frag: Dict) -> SubstitutionError:
    """``exc`` re-raised with the python-tier ``file:line`` it concerns
    (the guarded helper's, or else the fragment's source function)."""
    relpath, qualname = frag["source"]
    path, line = exc.path, exc.line
    if path is None:
        path = relpath
        tree = source_of(relpath)
        node = find_function(tree, qualname) if tree is not None else None
        line = node.lineno if node is not None else 1
    return SubstitutionError(
        f"{path}:{line}: kernel fragment {frag['name']!r} ({qualname}): "
        f"{exc}", path=path, line=line)


class KernelDeriver:
    """Derives kernel sources from one tree of python-tier sources.

    Three memo levels keep a new key cheap:

    * per deriver, the key-independent FRAGMENTS ops (parsing, inlines,
      guards, renames, hoist elisions);
    * per feature combination (runahead, FP invalidation), the feature
      placeholders, :func:`_feature_subs`, normalization and
      ``ast.unparse``;
    * per key, only the per-thread sampler unroll, the literal binds in
      the text, and (in :mod:`repro.core.kernel_cache`) ``compile``.

    Every level keeps text, not trees: held syntax trees would stay in
    memory as many small objects that every later full collection of
    the process walks.
    """

    def __init__(self, source_of: SourceOf) -> None:
        self._source_of = source_of
        self._base: Optional[Dict[str, str]] = None
        self._features: Dict[Tuple[bool, bool], Dict[str, str]] = {}

    def _apply(self, frag: Dict, ops: List[Tuple], stmts: List[ast.stmt],
               source_of: Optional[SourceOf] = None) -> None:
        source_of = source_of or self._source_of
        try:
            apply_ops(source_of, ops, stmts)
        except SubstitutionError as exc:
            raise _located(exc, source_of, frag) from None

    def _fragments(self) -> Dict[str, str]:
        """The key-independent stage bodies, unparsed; empty when a
        module the fragments read has no source."""
        if self._base is None:
            trees: Dict[str, Optional[ast.Module]] = {}

            def source_of(relpath: str) -> Optional[ast.Module]:
                if relpath not in trees:
                    trees[relpath] = self._source_of(relpath)
                return trees[relpath]

            base = {}
            if all(source_of(relpath) is not None for frag in FRAGMENTS
                   for relpath, _qualname in frag["covers"]):
                for frag in FRAGMENTS:
                    try:
                        stmts = function_body(source_of, *frag["source"])
                    except SubstitutionError as exc:
                        raise _located(exc, source_of, frag) from None
                    self._apply(frag, frag["subs"], stmts, source_of)
                    base[frag["name"]] = unparse(stmts)
            self._base = base
        return self._base

    def _feature_texts(self, uses_runahead: bool,
                       ra_fp_inval: bool) -> Dict[str, str]:
        feature = (uses_runahead, ra_fp_inval)
        texts = self._features.get(feature)
        if texts is None:
            values = {"KEY_USES_RUNAHEAD": str(uses_runahead),
                      "KEY_RA_FP_INVAL": str(ra_fp_inval)}
            subs = _feature_subs(uses_runahead, ra_fp_inval)
            texts = {}
            for frag in FRAGMENTS:
                name = frag["name"]
                stmts = ast.parse(_PLACEHOLDER.sub(
                    lambda match: values.get(match.group(), match.group()),
                    self._fragments()[name])).body
                self._apply(frag, subs[name], stmts)
                texts[name] = unparse(normalize(stmts))
            self._features[feature] = texts
        return texts

    def source(self, key: KernelKey) -> Optional[str]:
        """The full kernel source for ``key`` (None without source)."""
        if not self._fragments():
            return None
        stages = dict(self._feature_texts(key.uses_runahead,
                                          key.ra_fp_inval))
        # The sampler reads the hoisted per-thread slots: one copy of
        # its loop body per thread.
        sample = ast.parse(stages["sample"]).body
        frag = next(f for f in FRAGMENTS if f["name"] == "sample")
        self._apply(frag, [("unroll", "thread", [
            {"thread": f"t{i}", "thread_held": f"t{i}_held",
             "stats": f"t{i}_stats"} for i in range(key.num_threads)])],
            sample)
        stages["sample"] = unparse(normalize(sample))
        constants = _key_constants(key)
        for name, text in stages.items():
            stages[name] = _PLACEHOLDER.sub(
                lambda match: constants[match.group()], text)
        return kernel_source(key, stages)


def package_source_of() -> SourceOf:
    """A ``source_of`` over the installed package's own ``.py`` files
    (None for a module shipped without source)."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

    def source_of(relpath: str) -> Optional[ast.Module]:
        path = os.path.join(root, *relpath.split("/"))
        if not os.path.isfile(path):
            return None
        with open(path, "r", encoding="utf-8") as handle:
            return ast.parse(handle.read(), filename=path)

    return source_of


_PACKAGE_DERIVER: Optional[KernelDeriver] = None


def derive_kernel_source(key: KernelKey) -> Optional[str]:
    """The kernel source for ``key``, derived from the installed
    python tier, or None when that tier ships without source.

    Raises :class:`SubstitutionError` if a declared operation no longer
    applies: a drifted tier is an error, never a silent fallback.
    """
    global _PACKAGE_DERIVER
    if _PACKAGE_DERIVER is None:
        _PACKAGE_DERIVER = KernelDeriver(package_source_of())
    # Deriving allocates some 10^5 short-lived syntax-tree objects.
    # Left to the cyclic collector they set off a dozen young-generation
    # passes and can pull a full collection, which walks every live
    # object of the process, into setup.  Measured with simbench
    # (`--trace 1`, alternating, 2-core x86 host): sim-busy
    # core.kernel_resolve_s has a median of 0.14 s paused and 0.20 s
    # unpaused, faster paused in 6 of 7 pairs and tied in the 7th;
    # sim-blocked and peak_rss_mb do not move.
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _PACKAGE_DERIVER.source(key)
    finally:
        if enabled:
            gc.enable()
