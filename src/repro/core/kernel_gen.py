"""Derived kernels: config-folded pipeline run loops.

For a given *machine shape* — the config scalars the stage loops read
every cycle, plus the folded policy facts the pipeline derives at
construction — :func:`derive_kernel_source` produces Python source for
a complete ``run``-equivalent loop.  The stage bodies are not written
here: each one is *derived* from its ``SMTPipeline`` method, which is
written in the kernel's shape, so the hot loop has one spelling, in
``core/pipeline.py``.  Derivation only splices and respells:

* the :data:`FRAGMENTS` operations (:mod:`repro.core.astrewrite`)
  inline the helpers a stage calls and unroll its loops;
* one hoist rule, driven by the template's per-run hoists
  (:func:`_hoists`), renames every hoisted ``self`` chain and module
  constant to its hoisted local and drops the stage's own bindings of
  them;
* one constant-fold table (:data:`KEY_FOLDS`, :data:`CONSTANT_FOLDS`)
  replaces each config scalar a stage reads with its literal.

The only hand-written parts are the hoist table and the loop template
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
construction; an edit that breaks a declared operation (an inlined
call site, a stage binding that is no kernel hoist, a fold no stage
reads any more) raises :class:`SubstitutionError` naming the
``core/pipeline.py`` line, never a silent fallback.

Cost, measured on a 2-core x86 container: parsing the sources and
applying the key-independent operations runs once per process (about
70 ms), each feature combination (runahead, FP invalidation) once more
(about 20 ms), and each further key only binds its literals in the
text (about 3 ms) before the ``compile`` in
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
import os
import re
import textwrap
from typing import Dict, List, NamedTuple, Optional, Sequence, Tuple

from .astrewrite import (SourceOf, SubstitutionError, apply_ops,
                         find_function, function_body, normalize,
                         parse_expr, rewrite, unparse, walk_stmt_lists)
from .hookspec import kernel_covers_policy
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
    return KernelKey(
        num_threads=pipeline.num_threads,
        width=pipeline._width,
        fetch_threads=pipeline._fetch_threads,
        fetch_buffer=pipeline._fetch_buffer_size,
        icache_latency=pipeline._icache_latency,
        dcache_latency=pipeline._dcache_latency,
        l2_detect_latency=pipeline._l2_detect_latency,
        rob_capacity=pipeline.rob.capacity,
        iq_caps=pipeline._iq_caps,
        fu_caps=(fus._capacity[0], fus._capacity[1], fus._capacity[2]),
        uses_runahead=pipeline._uses_runahead,
        ra_fp_inval=pipeline._ra_fp_inval,
        has_on_cycle=pipeline._policy_on_cycle is not None,
        skip_enabled=bool(pipeline.cycle_skip and pipeline._policy_skip_ok),
    )


def kernel_namespace() -> dict:
    """The globals dict a generated kernel executes against: those of
    ``core/pipeline.py``, whose stage bodies the kernel is derived from
    (so enum members compare by identity with the python tier's)."""
    return dict(vars(pipeline_mod))


def _rotation_expr(key: KernelKey) -> str:
    nt = key.num_threads
    if nt == 1:
        return "rot0"
    if nt & (nt - 1) == 0:
        return f"rotations[now & {nt - 1}]"
    return f"rotations[now % {nt}]"


# ---------------------------------------------------------------------------
# Per-run hoists
#
# A hoist is a kernel local bound once per run to a python-tier
# expression: a construction-stable ``self`` chain (the attribute-
# stability audit in the PR notes; ``IssueQueue._ready`` is the one
# rebound attribute and is deliberately *not* hoisted) or a module
# constant of core/pipeline.py.  The same table drives the emitted
# hoist lines and the respelling of the stage bodies (_respell).

#: ``(local, python-tier expression, the KernelKey flag that gates the
#: hoist or None)``, in emission order after the per-thread and
#: rotation hoists of :func:`_hoists`.
_HOISTS = (
    ("rob", "self.rob", None),
    ("rob_queues", "self.rob._queues", None),
    ("rob_pt", "self.rob.per_thread", None),
    ("queues", "self.queues", None),
    ("q0", "self.queues[0]", None),
    ("q1", "self.queues[1]", None),
    ("q2", "self.queues[2]", None),
    ("q0_pt", "self.queues[0].per_thread", None),
    ("q1_pt", "self.queues[1].per_thread", None),
    ("q2_pt", "self.queues[2].per_thread", None),
    ("iq_caps", "self._iq_caps", None),
    ("int_file", "self.int_file", None),
    ("fp_file", "self.fp_file", None),
    ("available", "self.fus._available", None),
    ("issued", "self.fus.issued", None),
    ("events", "self._events", None),
    ("heap", "self._event_heap", None),
    ("fold_worklist", "self._fold_worklist", None),
    ("gstats", "self.gstats", None),
    ("mem", "self.mem", None),
    ("data_access", "self.mem.data_access_packed", None),
    ("ifetch_packed", "self.mem.ifetch_packed", None),
    ("predictor_predict", "self.predictor.predict", None),
    ("btb_lookup", "self.btb.lookup_and_insert", None),
    ("fetch_order", "self.policy.fetch_order", None),
    ("policy_on_cycle", "self._policy_on_cycle", "has_on_cycle"),
    ("fold", "self._fold", None),
    ("drain_folds", "self._drain_folds", None),
    ("release_preg", "self._release_preg", None),
    ("resolve_mispred", "self._resolve_misprediction", None),
    ("on_l2_detected", "self._on_l2_detected", None),
    ("schedule", "self.schedule", None),
    ("runahead", "self.runahead", "uses_runahead"),
    ("ra_exit", "self.runahead.exit", "uses_runahead"),
    ("should_enter", "self.runahead.should_enter", "uses_runahead"),
    ("on_runahead_store", "self.runahead.on_runahead_store",
     "uses_runahead"),
    ("ra_prefetch", "self.runahead.prefetch", "uses_runahead"),
    ("ra_stop_fetch", "self.runahead.stop_fetch_on_l2_miss",
     "uses_runahead"),
    ("load_forward", "self.runahead.load_forward_validity",
     "uses_runahead"),
    ("peek_data", "self.mem.peek_data", "uses_runahead"),
    ("enter_runahead", "self._enter_runahead", "uses_runahead"),
    ("skip_target", "self._skip_target", "skip_enabled"),
    ("skip_to", "self._skip_to", "skip_enabled"),
    # Module constants pulled into fast locals.
    ("no_reg", "NO_REG", None),
    ("nint", "_NINT", None),
    ("dispatched_state", "_DISPATCHED", None),
    ("ready_state", "_READY", None),
    ("issued_state", "_ISSUED", None),
    ("completed_state", "_COMPLETED", None),
    ("retired_state", "_RETIRED", None),
    ("ra_mode", "_RUNAHEAD", "uses_runahead"),
    ("normal_mode", "_NORMAL", "uses_runahead"),
    ("never", "_NEVER", None),
    ("op_latency", "OP_LATENCY_BY_CODE", None),
    ("op_queue", "OP_QUEUE_BY_CODE", None),
    ("is_fp_code", "IS_FP_BY_CODE", "uses_runahead"),
    ("cycle", "self.cycle", None),
)

#: Bound once per run as a default argument of the kernel function.
_ARGUMENT_HOISTS = (("squashed_state", "_SQUASHED"),)


def _thread_hoists(key: KernelKey) -> List[Tuple[str, str]]:
    """The per-thread hoists the unrolled sampler reads."""
    hoists = []
    for i in range(key.num_threads):
        hoists += [(f"t{i}", f"self.threads[{i}]"),
                   (f"t{i}_stats", f"self.threads[{i}].stats"),
                   (f"t{i}_held", f"self.threads[{i}].regs_held")]
    return hoists


def _hoists(key: KernelKey) -> List[Tuple[str, str]]:
    """``(local, python-tier expression)`` per hoist of ``key``'s
    kernel, in emission order."""
    rotation = (("rot0", "self._rotations[0]") if key.num_threads == 1
                else ("rotations", "self._rotations"))
    return ([("threads", "self.threads")] + _thread_hoists(key)
            + [rotation]
            + [(local, expr) for local, expr, flag in _HOISTS
               if flag is None or getattr(key, flag)])


#: The hoists every stage body is respelled with: all of them that do
#: not depend on the key's thread count, and the kernel's default
#: arguments.
_STAGE_HOISTS = ([("threads", "self.threads")]
                 + [(local, expr) for local, expr, _flag in _HOISTS]
                 + list(_ARGUMENT_HOISTS))


def _emit_hoists(key: KernelKey, emit) -> None:
    """The per-run hoist lines: each expression spelled through the
    longest earlier hoist it extends, folded to ``key``'s literal, or
    read from ``pipeline``."""
    literals = {expr: _key_literal(key, field) for field, expr in KEY_FOLDS}
    spelled: Dict[str, str] = {}
    for local, expr in _hoists(key):
        text = literals.get(expr)
        if text is None:
            cuts = [index for index, char in enumerate(expr)
                    if char in ".["]
            for cut in reversed(cuts):
                if expr[:cut] in spelled:
                    text = spelled[expr[:cut]] + expr[cut:]
                    break
            else:
                text = re.sub(r"^self\.", "pipeline.", expr)
        emit(f"    {local} = {text}")
        spelled[expr] = local


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
    emit("                " + ", ".join(
        f"{local}={expr}" for local, expr in _ARGUMENT_HOISTS) + "):")
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
    emit("        if now - pipeline._last_commit_cycle > _DEADLOCK_WINDOW:")
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
# operations (repro.core.astrewrite) that splice the helpers it calls
# into it; _respell then renames it to the kernel's locals and folds
# the constants.  Nothing here depends on the key: shape scalars become
# ``KEY_*`` placeholder names, bound per key by _key_constants, and the
# few key-dependent rewrites (runahead off, FP invalidation off) live
# in _feature_subs, the per-thread sampler unroll in
# KernelDeriver.source.  So the expensive part, parsing and the
# declared ops, runs once per process; a key only pays for the binds,
# the folds, ``ast.unparse`` and ``compile``.

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


FRAGMENTS = (
    {
        "name": "events",
        "source": ("core/pipeline.py", "SMTPipeline._process_events"),
        "ops": [
            # _src_ready is spliced per waiter; its early returns
            # become loop continues.
            ("inline", ("core/pipeline.py", "SMTPipeline._src_ready"),
             "self._src_ready(waiter, now, preg, invalid)",
             {"bind": {"inst": "waiter"},
              "returns": ["continue", "continue"]}),
        ],
    },
    {
        "name": "commit",
        "source": ("core/pipeline.py", "SMTPipeline._commit_stage"),
        "ops": [
            # _commit_thread spliced into the per-thread loop; its
            # returns become continue / commit-and-break / the
            # normal-vs-runahead else split / fall-through.
            ("inline", ("core/pipeline.py", "SMTPipeline._commit_thread"),
             "commit_budget = self._commit_thread(thread, now,"
             " commit_budget)",
             {"returns": ["continue", "stmts:commit_budget -= 1\nbreak",
                          "else-rest", "delete"]}),
        ],
    },
    {
        "name": "issue",
        "source": ("core/pipeline.py", "SMTPipeline._issue_stage"),
        "ops": [
            # _issue_load spliced at its call; the runahead early
            # return turns the rest of the helper into the else
            # branch, the MSHR-full return becomes the loop continue.
            ("inline", ("core/pipeline.py", "SMTPipeline._issue_load"),
             "if not self._issue_load(thread, tid, inst, queue, now):\n"
             "    continue",
             {"returns": ["else-rest", "continue", "delete"]}),
            ("inline", ("core/pipeline.py", "SMTPipeline._issue_store"),
             "self._issue_store(thread, tid, inst, now)",
             {"returns": []}),
            # _issue_runahead_load and the gate_fetch_until it calls are
            # spliced in too.
            ("inline", ("core/pipeline.py",
                        "SMTPipeline._issue_runahead_load"),
             "self._issue_runahead_load(thread, tid, inst, now)",
             {"returns": []}),
            ("inline", ("core/thread.py", "ThreadContext.gate_fetch_until"),
             "thread.gate_fetch_until(thread.runahead_trigger_ready)",
             {"bind": {"self": "thread",
                       "cycle": ("trigger", "thread.runahead_trigger_ready")},
              "returns": []}),
            # One copy of the selection loop per queue, each reading
            # that queue's hoists.
            ("unroll", "queue_kind",
             [{"queue_kind": str(qk), "queue": f"q{qk}",
               "per_thread": f"q{qk}_pt"}
              for qk in (2, 0, 1)]),
        ],
    },
    {
        "name": "dispatch",
        "source": ("core/pipeline.py", "SMTPipeline._dispatch_stage"),
        "ops": [],
    },
    {
        "name": "fetch",
        "source": ("core/pipeline.py", "SMTPipeline._fetch_stage"),
        "ops": [
            ("inline", ("core/thread.py", "ThreadContext.block_fetch_until"),
             "thread.block_fetch_until(complete)",
             {"bind": {"self": "thread", "cycle": "complete"},
              "returns": []}),
            ("inline", ("core/thread.py", "ThreadContext.block_fetch_until"),
             "thread.block_fetch_until(now + 2)",
             {"bind": {"self": "thread", "cycle": ("blocked", "now + 2")},
              "returns": []}),
        ],
    },
    {
        "name": "sample",
        "source": ("core/pipeline.py", "SMTPipeline._sample_stats"),
        "ops": [],
    },
)


def fragment_functions(frag: Dict) -> List[Tuple[str, str]]:
    """The python-tier functions a fragment is derived from: its stage
    and every helper it inlines."""
    functions = [frag["source"]]
    for op in frag["ops"]:
        if op[0] == "inline" and op[1] not in functions:
            functions.append(op[1])
    return functions


#: The constant folds, one table for every stage: each KernelKey field
#: a stage reads, with the python-tier expression its literal replaces
#: (a ``KEY_<FIELD>`` placeholder until the key binds it).
KEY_FOLDS = (
    ("width", "self._width"),
    ("fetch_threads", "self._fetch_threads"),
    ("fetch_buffer", "self._fetch_buffer_size"),
    ("icache_latency", "self._icache_latency"),
    ("dcache_latency", "self._dcache_latency"),
    ("l2_detect_latency", "self._l2_detect_latency"),
    ("rob_capacity", "self.rob.capacity"),
    ("iq_caps", "self._iq_caps"),
    ("num_threads", "self._rotations[now % self.num_threads]"),
    ("uses_runahead", "self._uses_runahead"),
    ("ra_fp_inval", "self._ra_fp_inval"),
)

#: Module constants of core/pipeline.py folded to their values.
CONSTANT_FOLDS = ("_EV_COMPLETE", "_EV_L2_DETECT", "_SYNC_CODE")


def _key_literal(key: KernelKey, field: str) -> str:
    if field == "num_threads":
        return _rotation_expr(key)
    return str(getattr(key, field))


def _key_constants(key: KernelKey) -> Dict[str, str]:
    """What each ``KEY_*`` placeholder reads for ``key``."""
    return {f"KEY_{field.upper()}": _key_literal(key, field)
            for field, _expr in KEY_FOLDS}


def _stage_folds() -> List[Tuple[str, str]]:
    return ([(expr, f"KEY_{field.upper()}") for field, expr in KEY_FOLDS]
            + [(name, repr(getattr(pipeline_mod, name)))
               for name in CONSTANT_FOLDS])


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
            ("drop", "in_runahead = thread.mode is ra_mode"),
            ("expr", "in_runahead", "False"),
            # A DynInst starts with runahead=False.
            ("drop", "inst.runahead = False"),
        ]
    elif not ra_fp_inval:
        # Only SYNC drops at decode, and SYNC writes no FP register.
        subs["dispatch"].append(
            ("drop",
             "if is_fp_code[op] and inst.dest_arch != no_reg:\n"
             "    arch_inv[inst.dest_arch] = True"))
    return subs


def _respell(stmts: List[ast.stmt], hoists: Sequence[Tuple[str, str]],
             folds: Sequence[Tuple[str, str]] = ()) -> List[int]:
    """Spell ``stmts`` in the kernel's names, in place; per-fold counts.

    Every read of a hoisted local is first spelled as the python-tier
    expression it holds, then every hoisted expression (the longest
    one, outermost first) as its local, every fold as its value and any
    other ``self`` as ``pipeline``.  A binding that restates a hoist
    becomes ``x = x`` and is dropped.  What is left must not bind a
    hoisted local: a marked prologue binding (see
    :func:`~repro.core.astrewrite.function_body`) that restates no
    hoist and is no fold (a stage's budget), or any other write to a
    hoisted name, raises :class:`SubstitutionError` at its line.
    """
    names = {local for local, _expr in hoists}
    rewrite(stmts, [(ast.Name(id=local, ctx=ast.Load()), parse_expr(expr))
                    for local, expr in hoists])
    counts = rewrite(stmts, (
        [(parse_expr(expr), ast.Name(id=local, ctx=ast.Load()))
         for local, expr in hoists]
        + [(parse_expr(expr), parse_expr(value)) for expr, value in folds]
        + [(ast.Name(id="self", ctx=ast.Load()),
            ast.Name(id="pipeline", ctx=ast.Load()))]))
    _drop_restated(stmts, names)
    return counts[len(hoists):len(hoists) + len(folds)]


def _stored_names(stmt: ast.stmt) -> List[str]:
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign, ast.For)):
        targets = [stmt.target]
    else:
        return []
    return [node.id for target in targets for node in ast.walk(target)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store)]


def _folded(node: ast.expr) -> bool:
    """A constant, or a key placeholder: a fold's value."""
    return isinstance(node, ast.Constant) or (
        isinstance(node, ast.Name) and bool(_PLACEHOLDER.fullmatch(node.id)))


def _drop_restated(stmts: List[ast.stmt], hoisted: set) -> None:
    def scan(block: List[ast.stmt]) -> None:
        kept = []
        for stmt in block:
            if isinstance(stmt, ast.Assign) and len(stmt.targets) == 1 \
                    and isinstance(stmt.targets[0], ast.Name) \
                    and isinstance(stmt.value, ast.Name) \
                    and stmt.targets[0].id == stmt.value.id:
                continue
            prologue = getattr(stmt, "prologue", None)
            if prologue is not None and not _folded(stmt.value):
                raise SubstitutionError(
                    f"{prologue}:{stmt.lineno}: the prologue binding "
                    f"{unparse([stmt])!r} has no matching kernel hoist; "
                    "bind a local the template hoists (kernel_gen "
                    "_HOISTS) by its name, or read the attribute in "
                    "place", path=prologue, line=stmt.lineno)
            for name in _stored_names(stmt):
                if name in hoisted:
                    raise SubstitutionError(
                        f"{unparse([stmt])!r} writes {name!r}, a local "
                        "the kernel hoists once per run; rename the "
                        "stage's local", line=stmt.lineno)
            kept.append(stmt)
        block[:] = kept

    walk_stmt_lists(stmts, scan)


def _definition_line(tree: ast.Module, expr: str) -> int:
    """The ``core/pipeline.py`` line that defines what ``expr`` reads:
    the ``__init__`` assignment of its first ``self`` attribute, or the
    module constant's assignment."""
    node = parse_expr(expr)
    while isinstance(node, (ast.Attribute, ast.Subscript)) and not (
            isinstance(node, ast.Attribute)
            and isinstance(node.value, ast.Name)):
        node = node.value
    if isinstance(node, ast.Attribute):
        scope = find_function(tree, "SMTPipeline.__init__")
        wanted = ("self", node.attr)
        for child in ast.walk(scope) if scope is not None else ():
            if isinstance(child, (ast.Assign, ast.AnnAssign)):
                targets = (child.targets if isinstance(child, ast.Assign)
                           else [child.target])
                for target in targets:
                    if isinstance(target, ast.Attribute) \
                            and isinstance(target.value, ast.Name) \
                            and (target.value.id, target.attr) == wanted:
                        return child.lineno
    elif isinstance(node, ast.Name):
        for child in tree.body:
            if isinstance(child, ast.Assign) and any(
                    isinstance(target, ast.Name) and target.id == node.id
                    for target in child.targets):
                return child.lineno
    return 1


def _located(exc: SubstitutionError, source_of: SourceOf,
             frag: Dict) -> SubstitutionError:
    """``exc`` re-raised with the python-tier ``file:line`` it concerns
    (the statement or helper it names, or else the fragment's source
    function)."""
    relpath, qualname = frag["source"]
    path, line = exc.path or relpath, exc.line
    message = str(exc)
    if line is None:
        tree = source_of(relpath)
        node = find_function(tree, qualname) if tree is not None else None
        line = node.lineno if node is not None else 1
    if not message.startswith(f"{path}:{line}:"):
        message = f"{path}:{line}: {message}"
    return SubstitutionError(
        f"{message} (kernel fragment {frag['name']!r}, {qualname})",
        path=path, line=line)


class KernelDeriver:
    """Derives kernel sources from one tree of python-tier sources.

    Three memo levels keep a new key cheap:

    * per deriver, the key-independent work: parsing, the FRAGMENTS
      inlines and unroll, and :func:`_respell` with every
      thread-count-independent hoist and the fold table, which leaves
      the key fields as ``KEY_*`` placeholders (a fold no stage reads
      any more is an error here);
    * per feature combination (runahead, FP invalidation), the feature
      placeholders, :func:`_feature_subs`, normalization and
      ``ast.unparse``;
    * per key, only the per-thread sampler unroll (respelled with the
      per-thread hoists), the literal binds in the text, and (in
      :mod:`repro.core.kernel_cache`) ``compile``.

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
                   for relpath, _qualname in fragment_functions(frag)):
                folds = _stage_folds()
                reads = [0] * len(folds)
                for frag in FRAGMENTS:
                    try:
                        stmts = function_body(source_of, *frag["source"])
                        apply_ops(source_of, frag["ops"], stmts)
                        counts = _respell(stmts, _STAGE_HOISTS, folds)
                    except SubstitutionError as exc:
                        raise _located(exc, source_of, frag) from None
                    reads = [a + b for a, b in zip(reads, counts)]
                    base[frag["name"]] = unparse(stmts)
                _check_folds(source_of("core/pipeline.py"), folds, reads)
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
            {"thread": f"t{i}", "stats": f"t{i}_stats"}
            for i in range(key.num_threads)])], sample)
        _respell(sample, _thread_hoists(key))
        stages["sample"] = unparse(normalize(sample))
        constants = _key_constants(key)
        for name, text in stages.items():
            stages[name] = _PLACEHOLDER.sub(
                lambda match: constants[match.group()], text)
        return kernel_source(key, stages)


def _check_folds(tree: ast.Module, folds: Sequence[Tuple[str, str]],
                 reads: Sequence[int]) -> None:
    """Raise for a fold that no stage reads (and no hoist consumes)."""
    hoisted = {expr for _local, expr in _STAGE_HOISTS}
    for (expr, value), count in zip(folds, reads):
        if count == 0 and expr not in hoisted:
            line = _definition_line(tree, expr)
            raise SubstitutionError(
                f"core/pipeline.py:{line}: the constant fold of {expr!r} "
                f"(to {value}) matches no stage any more; fold what the "
                "stages read now, or drop the entry from the fold table",
                path="core/pipeline.py", line=line)


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
