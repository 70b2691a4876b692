"""Tests for the shared ROB, issue queues and FU pools."""

import pytest

from repro.core.dyninst import DynInst, InstState
from repro.core.fu import FUPool
from repro.core.issue_queue import IssueQueue, MEMORY_WAIT
from repro.core.rob import SharedROB
from repro.errors import SimulationError
from repro.isa import FUKind, OpClass
from repro.testing import TraceBuilder, make_processor


def _inst(tid=0, seq=0, op=OpClass.IALU, gseq=None):
    inst = DynInst(tid, seq, seq, 0, int(op), 0x100 + 4 * seq, 0, 1, -1, -1,
                   False)
    inst.gseq = gseq if gseq is not None else seq
    return inst


def _pipeline(threads=1):
    """A machine with empty issue queues: selection from a ready list is
    open-coded in its issue stage (``SMTPipeline._issue_stage``)."""
    traces = [TraceBuilder(name=f"t{i}").nops(4).build()
              for i in range(threads)]
    return make_processor(traces).pipeline


def _ready(pipeline, kind, inst, insert=True):
    """Put ``inst`` on queue ``kind``'s ready list, as wakeup does."""
    queue = pipeline.queues[kind]
    if insert:
        queue.insert(inst)
    inst.state = InstState.READY
    queue.mark_ready(inst)
    return inst


def _issue(pipeline, kind, limit, now=0):
    """One issue stage with ``limit`` units of ``kind`` free (and none
    of the others): the instructions it issued, oldest first."""
    ready = list(pipeline.queues[kind]._ready)
    pipeline.fus._available[:] = [0, 0, 0]
    pipeline.fus._available[kind] = limit
    pipeline._issue_stage(now)
    return sorted((inst for inst in ready if inst.state == InstState.ISSUED),
                  key=lambda inst: inst.gseq)


class TestSharedROB:
    def test_append_and_head(self):
        rob = SharedROB(8, 2)
        first = _inst(tid=0, seq=0)
        rob.append(first)
        rob.append(_inst(tid=1, seq=0))
        assert rob.head(0) is first
        assert rob.occupancy == 2
        assert rob.per_thread == [1, 1]

    def test_capacity_shared_across_threads(self):
        rob = SharedROB(4, 2)
        for seq in range(3):
            rob.append(_inst(tid=0, seq=seq))
        rob.append(_inst(tid=1, seq=0))
        assert rob.is_full()
        with pytest.raises(SimulationError):
            rob.append(_inst(tid=1, seq=1))

    def test_pop_head_in_order(self):
        rob = SharedROB(8, 1)
        instrs = [_inst(seq=seq) for seq in range(3)]
        for inst in instrs:
            rob.append(inst)
        assert rob.pop_head(0) is instrs[0]
        assert rob.pop_head(0) is instrs[1]
        assert rob.occupancy == 1

    def test_squash_younger_returns_youngest_first(self):
        rob = SharedROB(8, 1)
        instrs = [_inst(seq=seq) for seq in range(5)]
        for inst in instrs:
            rob.append(inst)
        squashed = rob.squash_younger(0, boundary_seq=1)
        assert [inst.seq for inst in squashed] == [4, 3, 2]
        assert rob.occupancy == 2

    def test_squash_only_affects_one_thread(self):
        rob = SharedROB(8, 2)
        rob.append(_inst(tid=0, seq=0))
        rob.append(_inst(tid=1, seq=0))
        rob.squash_all(0)
        assert rob.is_empty(0)
        assert not rob.is_empty(1)

    def test_thread_window_iterates_oldest_first(self):
        rob = SharedROB(8, 1)
        for seq in range(3):
            rob.append(_inst(seq=seq))
        assert [i.seq for i in rob.thread_window(0)] == [0, 1, 2]

    def test_check_occupancy(self):
        rob = SharedROB(8, 2)
        rob.append(_inst())
        rob.check_occupancy()


class TestIssueQueue:
    def test_insert_remove_accounting(self):
        queue = IssueQueue("int", 4, 2)
        inst = _inst()
        queue.insert(inst)
        assert queue.size == 1 and queue.per_thread[0] == 1
        queue.remove(inst)
        assert queue.size == 0 and not inst.in_iq

    def test_remove_idempotent(self):
        queue = IssueQueue("int", 4, 1)
        inst = _inst()
        queue.insert(inst)
        queue.remove(inst)
        queue.remove(inst)
        assert queue.size == 0

    def test_overflow_raises(self):
        queue = IssueQueue("int", 1, 1)
        queue.insert(_inst(seq=0))
        with pytest.raises(SimulationError):
            queue.insert(_inst(seq=1))

    def test_take_ready_oldest_first_across_threads(self):
        # Selection is the issue stage's: one INT unit picks the oldest
        # ready instruction by global fetch order, whatever its thread.
        pipeline = _pipeline(threads=2)
        young = _ready(pipeline, 0, _inst(tid=0, seq=5, gseq=10))
        old = _ready(pipeline, 0, _inst(tid=1, seq=1, gseq=2))
        assert _issue(pipeline, 0, limit=1) == [old]
        # The unselected instruction stays ready for the next cycle.
        assert pipeline.queues[0]._ready == [young]
        assert _issue(pipeline, 0, limit=1, now=1) == [young]
        assert pipeline.queues[0].size == 0

    def test_take_ready_purges_squashed(self):
        pipeline = _pipeline()
        dead = _ready(pipeline, 0, _inst(seq=0), insert=False)
        dead.state = InstState.SQUASHED
        live = _ready(pipeline, 0, _inst(seq=1))
        assert _issue(pipeline, 0, limit=4) == [live]
        assert dead.state == InstState.SQUASHED
        assert pipeline.queues[0]._ready == []

    def test_requeue(self):
        queue = IssueQueue("int", 8, 1)
        inst = _inst()
        inst.state = InstState.READY
        queue.requeue(inst)
        assert queue.ready_count() == 1
        assert queue.next_ready_cycle(5) == 5

    def test_ready_count(self):
        queue = IssueQueue("int", 8, 1)
        inst = _inst()
        inst.state = InstState.READY
        queue.mark_ready(inst)
        assert queue.ready_count() == 1


class TestNextReadyCycle:
    """The queue's term in the per-structure skip-horizon contract."""

    def test_empty_queue_has_no_wakeup(self):
        queue = IssueQueue("ls", 8, 1)
        assert queue.next_ready_cycle(100) is None

    def test_live_ready_entry_pins_now(self):
        queue = IssueQueue("ls", 8, 1)
        inst = _inst()
        inst.state = InstState.READY
        queue.mark_ready(inst)
        assert queue.next_ready_cycle(100) == 100

    def test_replay_only_defers_to_memory(self):
        queue = IssueQueue("ls", 8, 1)
        inst = _inst(op=OpClass.LOAD)
        inst.state = InstState.READY
        queue.insert(inst)
        queue.requeue(inst, replay=True)
        assert inst.replay
        assert queue.next_ready_cycle(100) == MEMORY_WAIT

    def test_mixed_ready_and_replay_pins_now(self):
        queue = IssueQueue("ls", 8, 2)
        replaying = _inst(tid=0, seq=0, op=OpClass.LOAD)
        replaying.state = InstState.READY
        queue.insert(replaying)
        queue.requeue(replaying, replay=True)
        issueable = _inst(tid=1, seq=1)
        issueable.state = InstState.READY
        queue.mark_ready(issueable)
        assert queue.next_ready_cycle(7) == 7

    def test_take_ready_sheds_replay_deferral(self):
        # A selected replay load sheds its deferral before the issue
        # attempt (here it issues: the MSHR file has room).
        pipeline = _pipeline()
        queue = pipeline.queues[2]
        inst = _inst(op=OpClass.LOAD)
        queue.insert(inst)
        inst.state = InstState.READY
        queue.requeue(inst, replay=True)
        assert queue.next_ready_cycle(0) == MEMORY_WAIT
        assert _issue(pipeline, 2, limit=4) == [inst]
        assert not inst.replay
        assert queue._replay_blocked == 0

    def test_remove_clears_replay_accounting(self):
        # A replaying load squashed while waiting must not leave the
        # queue claiming a memory wait forever.
        queue = IssueQueue("ls", 8, 1)
        inst = _inst(op=OpClass.LOAD)
        inst.state = InstState.READY
        queue.insert(inst)
        queue.requeue(inst, replay=True)
        inst.state = InstState.SQUASHED
        queue.remove(inst)
        assert queue._replay_blocked == 0
        assert queue.next_ready_cycle(3) is None

    def test_stale_only_list_is_cleared(self):
        queue = IssueQueue("int", 8, 1)
        inst = _inst()
        inst.state = InstState.SQUASHED
        queue.mark_ready(inst)
        assert queue.next_ready_cycle(0) is None
        assert queue._ready == []


class TestFUPool:
    def test_budgets_match_table1(self):
        pool = FUPool(6, 3, 4)
        assert pool.capacity(FUKind.INT) == 6
        assert pool.capacity(FUKind.FP) == 3
        assert pool.capacity(FUKind.LDST) == 4

    def test_acquire_consumes_budget(self):
        pool = FUPool(2, 1, 1)
        assert pool.acquire(int(OpClass.IALU))
        assert pool.acquire(int(OpClass.IMUL))
        assert not pool.acquire(int(OpClass.IALU))

    def test_new_cycle_refreshes(self):
        pool = FUPool(1, 1, 1)
        pool.acquire(int(OpClass.IALU))
        pool.new_cycle()
        assert pool.acquire(int(OpClass.IALU))

    def test_pools_independent(self):
        pool = FUPool(1, 1, 1)
        assert pool.acquire(int(OpClass.IALU))
        assert pool.acquire(int(OpClass.FADD))
        assert pool.acquire(int(OpClass.LOAD))

    def test_branch_uses_int_units(self):
        pool = FUPool(1, 1, 1)
        assert pool.acquire(int(OpClass.BRANCH))
        assert not pool.acquire(int(OpClass.IALU))

    def test_rejects_empty_pool(self):
        with pytest.raises(ValueError):
            FUPool(0, 1, 1)

    def test_next_release_is_next_cycle(self):
        # Fully-pipelined pools refresh every budget at the next cycle
        # boundary; the horizon must say so regardless of current usage.
        pool = FUPool(1, 1, 1)
        assert pool.next_release_cycle(41) == 42
        pool.acquire(int(OpClass.IALU))
        assert pool.next_release_cycle(41) == 42
