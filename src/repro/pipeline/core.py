"""Cycle-level out-of-order core with EDE support.

The core is trace-driven: it consumes a dynamic instruction stream whose
memory instructions carry resolved effective addresses (produced either by
the functional machine or by the NVM framework's code generator).  Branches
are therefore perfectly predicted; an optional squash injector exercises the
recovery path (EDM checkpoint restore) that real mispredictions would take.

Pipeline structure per cycle (Table I sizes):

1. **events** — scheduled completions (FU results, memory returns, write
   buffer pushes) land.
2. **retire** — up to 3 instructions leave the ROB in order; store-class
   instructions and JOINs move to the write buffer; DSB / WAIT_KEY /
   WAIT_ALL_KEYS gate here.
3. **write buffer** — eligible entries begin pushing to the memory system;
   under the WB policy this is where execution dependences are enforced
   (srcID CAM, Section V-D).
4. **issue** — up to 8 ready instructions start executing; under the IQ
   policy the ``eDepReady`` check gates here (Section V-B1).
5. **dispatch** — up to 3 instructions enter ROB/IQ/LSQ; EDE instructions
   access the speculative EDM (Section V-A).

The core has one engine, :meth:`OutOfOrderCore._cycles`: a generator
whose every resume runs exactly one cycle at ``self.now``, with dispatch
driven by the packed rows of :mod:`repro.pipeline.replay`.  It never
advances the clock.  :func:`drive` is the only clock owner, for one core
or many: it resumes the cores in id order, runs the cycle-budget and
no-retire watchdogs, and when no core made progress fast-forwards to the
earliest scheduled event, attributing the skipped cycles to the
zero-issue bucket of the Fig. 11 histogram.  :meth:`OutOfOrderCore.run`
is ``drive([self])``.
"""

from __future__ import annotations

import gc
import heapq
from collections import deque
from typing import Callable, Deque, Dict, List, Optional, Sequence, Set

from repro.core.edm import CheckpointedEdm
from repro.core.policies import EnforcementPolicy, FENCE_POLICY
from repro.isa.instructions import Instruction
from repro.isa.opcodes import Opcode
from repro.memory.hierarchy import CacheHierarchy
from repro.pipeline.dyninst import (
    DynInst,
    EXEC_AGU,
    EXEC_BRANCH,
    EXEC_LOAD,
    EXEC_MUL,
    RETIRE_DSB,
    RETIRE_HALT,
    RETIRE_NORMAL,
    RETIRE_WAIT_ALL,
    RETIRE_WAIT_KEY,
)
from repro.pipeline.params import CoreParams
from repro.pipeline.replay import TraceMeta
from repro.pipeline.stats import PipelineStats
from repro.pipeline.write_buffer import PENDING, WbEntry, WriteBuffer

#: Event kinds.  An event is a ``(kind, payload)`` pair, kept either in the
#: cycle-keyed wheel or in the engine's delta-1 lane.
EV_EXECUTE_DONE = 0   # payload: DynInst whose functional-unit work is done
EV_FINISH_PUSH = 1    # payload: WbEntry whose memory push completed
EV_LOAD_AGU_DONE = 2  # payload: load whose address is ready
EV_LOAD_DATA = 3      # payload: load whose data returned
EV_WAKE = 4           # payload: None; only wakes the clock

#: What one engine resume reports (bit flags; RETIRED implies progress).
IDLE = 0
PROGRESS = 1
RETIRED = 2

_DMBS = (Opcode.DMB_ST, Opcode.DMB_SY)


class SimulationError(RuntimeError):
    """Raised on deadlock or runaway simulation."""


class OutOfOrderCore:
    """The A72-like out-of-order core model."""

    #: Multi-core hooks, ``None`` on a single core (one ``is None`` test
    #: each, on rare paths only).  A subclass defines them as methods:
    #:
    #: - ``_publish_ede(dyn)`` runs after the local EDM access of every
    #:   dispatched EDE instruction (publish to a shared map, collect
    #:   remote-producer tokens into ``dyn.e_deps_outstanding``);
    #: - ``_remote_wait_blocks(dyn)`` runs when a WAIT_KEY/WAIT_ALL_KEYS at
    #:   the ROB head has no older local producer left, and returns whether
    #:   a remote producer still holds it back.
    _publish_ede: Optional[Callable[[DynInst], None]] = None
    _remote_wait_blocks: Optional[Callable[[DynInst], bool]] = None

    def __init__(self,
                 trace: Sequence[Instruction],
                 hierarchy: CacheHierarchy,
                 policy: EnforcementPolicy = FENCE_POLICY,
                 params: CoreParams = CoreParams(),
                 squash_at: Sequence[int] = (),
                 replay: Optional[TraceMeta] = None):
        """Args:
            trace: Dynamic instruction stream ending in HALT.
            hierarchy: The cache hierarchy + memory controller to run against.
            policy: Where EDE dependences are enforced (IQ / WB / FENCE).
            params: Pipeline geometry.
            squash_at: Trace indices at which to inject a pipeline squash
                the first time the front end reaches them (testing hook for
                the EDM checkpoint-recovery path).
            replay: The trace's packed replay rows.  ``None`` (default)
                builds a :class:`~repro.pipeline.replay.TraceMeta` when the
                run starts; a ready one (e.g. from
                :func:`repro.pipeline.replay.meta_for`) reuses a shared
                prepass.
        """
        params.validate()
        self.trace = list(trace)
        if not self.trace or self.trace[-1].opcode is not Opcode.HALT:
            raise ValueError("trace must end with HALT")
        self.hierarchy = hierarchy
        self.policy = policy
        self.params = params
        self.stats = PipelineStats()
        self.edm = CheckpointedEdm()
        self.wb = WriteBuffer(params.write_buffer_entries,
                              hierarchy.params.line_size)

        self.now = 0
        self._fetch_index = 0
        self._next_seq = 0
        self._halted = False
        self._halt_dyn: Optional[DynInst] = None

        self._rob: Deque[DynInst] = deque()
        self._iq: List[DynInst] = []
        self._lq_used = 0
        self._sq_used = 0

        # Scoreboard: register -> last in-flight writer.
        self._scoreboard: Dict[int, DynInst] = {}
        self._reg_waiters: Dict[int, List[DynInst]] = {}
        self._ede_waiters: Dict[int, List[DynInst]] = {}
        #: Store seq -> loads whose forwarded data waits on that store's
        #: execution (scheduled for data return when the store executes).
        self._store_exec_waiters: Dict[int, List[DynInst]] = {}

        # In-flight completion tracking (for DSB / HALT).
        self._incomplete: Dict[int, DynInst] = {}
        self._incomplete_heap: List[int] = []

        self._active_dsbs: List[int] = []

        # DMB epochs: outstanding store-class / memory ops per epoch, and
        # the oldest epoch that may still have some.
        self._store_epoch_outstanding: Dict[int, int] = {}
        self._min_live_store_epoch = 0
        self._mem_epoch_outstanding: Dict[int, int] = {}
        self._min_live_mem_epoch = 0

        # Store-to-load forwarding index: word address -> in-flight stores.
        self._store_by_word: Dict[int, List[DynInst]] = {}

        # Event wheel: cycle -> [(kind, payload)], plus a heap of cycles.
        self._events: Dict[int, List[tuple]] = {}
        self._event_heap: List[int] = []

        self._squash_at: Set[int] = set(squash_at)

        if replay is not None:
            if not isinstance(replay, TraceMeta):
                raise TypeError(
                    "replay must be None or a TraceMeta, got %r" % (replay,))
            if not replay.matches(self.trace):
                raise ValueError(
                    "replay metadata does not match the trace "
                    "(%d rows vs %d instructions)"
                    % (replay.length, len(self.trace)))
        self._replay = replay

        #: (cycle, seq, tag, addr) for every tagged store becoming visible —
        #: consumed by the crash-consistency checker.
        self.store_visibility: List[tuple] = []

        #: Optional observer called with each DynInst as it completes
        #: (``complete_cycle`` already set).  Completion is inlined at
        #: several sites of the engine for speed, so instrumentation must
        #: use this hook.
        self.on_complete: Optional[Callable[[DynInst], None]] = None

    # ------------------------------------------------------------------
    # Event plumbing
    # ------------------------------------------------------------------

    def _schedule(self, cycle: int, kind: int, payload=None) -> None:
        """Schedule event ``(kind, payload)`` for ``cycle`` (>= now + 1)."""
        now_next = self.now + 1
        if cycle < now_next:
            cycle = now_next
        bucket = self._events.get(cycle)
        if bucket is None:
            self._events[cycle] = [(kind, payload)]
            heapq.heappush(self._event_heap, cycle)
        else:
            bucket.append((kind, payload))

    # ------------------------------------------------------------------
    # Completion tracking
    # ------------------------------------------------------------------

    def _mark_complete(self, dyn: DynInst) -> None:
        """The EDE notion of completion: effects observable."""
        if dyn.completed or dyn.squashed:
            return
        dyn.completed = True
        dyn.complete_cycle = self.now
        self._incomplete.pop(dyn.seq, None)

        if dyn.is_ede:
            for key in dyn.producer_keys:
                self.edm.complete(key, dyn.seq)
            for waiter in self._ede_waiters.pop(dyn.seq, ()):
                waiter.e_deps_outstanding.discard(dyn.seq)

        if dyn.is_store_class:
            self._store_epoch_outstanding[dyn.store_epoch] -= 1
        if dyn.is_memory:
            self._mem_epoch_outstanding[dyn.mem_epoch] -= 1
        if dyn.is_store:
            self._unindex_store(dyn)
        if self.on_complete is not None:
            self.on_complete(dyn)

    # ------------------------------------------------------------------
    # Store forwarding index
    # ------------------------------------------------------------------

    def _index_store(self, dyn: DynInst) -> None:
        index = self._store_by_word
        for word in dyn.words:
            bucket = index.get(word)
            if bucket is None:
                index[word] = [dyn]
            else:
                bucket.append(dyn)

    def _unindex_store(self, dyn: DynInst) -> None:
        index = self._store_by_word
        for word in dyn.words:
            stores = index.get(word)
            if stores and dyn in stores:
                stores.remove(dyn)
                if not stores:
                    del index[word]

    def _forwarding_store(self, load: DynInst) -> Optional[DynInst]:
        """Youngest in-flight store older than ``load`` covering its word."""
        best: Optional[DynInst] = None
        index = self._store_by_word
        load_seq = load.seq
        for word in load.words:
            for store in reversed(index.get(word, ())):
                if store.seq < load_seq and not store.squashed:
                    if best is None or store.seq > best.seq:
                        best = store
                    break
        return best

    # ------------------------------------------------------------------
    # Squash injection (tests the EDM recovery path)
    # ------------------------------------------------------------------

    def _inject_squash(self, lane: List[tuple]) -> int:
        """Flush every dispatched-but-unretired instruction and refetch.

        Mirrors misprediction recovery: the speculative EDM is restored from
        the non-speculative copy, then repaired by replaying the EDM effects
        of the surviving (retired-but-incomplete instructions are in the
        write buffer and already reflected in the non-spec copy, so only the
        in-ROB survivors matter — and a full flush leaves none).

        Pending events of flushed instructions stay scheduled as wake-ups
        (``lane`` is the engine's delta-1 lane): they still fire, and count
        as progress, on their cycle.  Returns the number of DMBs flushed:
        their refetch bumps the DMB epochs a second time.
        """
        self.stats.squashes += 1
        flushed_dmbs = 0
        for dyn in self._rob:
            dyn.squashed = True
            self._incomplete.pop(dyn.seq, None)
            if dyn.is_store_class:
                self._sq_used -= 1
            if not dyn.completed:
                # A completed instruction already released its epoch count.
                if dyn.is_store_class:
                    self._store_epoch_outstanding[dyn.store_epoch] -= 1
                if dyn.is_memory:
                    self._mem_epoch_outstanding[dyn.mem_epoch] -= 1
            if dyn.is_load and not dyn.executed:
                self._lq_used -= 1  # else freed at data return
            if dyn.is_store:
                self._unindex_store(dyn)
            if dyn.opcode in _DMBS:
                flushed_dmbs += 1
            self._ede_waiters.pop(dyn.seq, None)
            self._reg_waiters.pop(dyn.seq, None)
            self._store_exec_waiters.pop(dyn.seq, None)
        # Refetch from the oldest flushed instruction's trace position.
        self._fetch_index -= len(self._rob)
        self._rob.clear()
        self._iq.clear()
        self._active_dsbs[:] = [
            seq for seq in self._active_dsbs if seq in self._incomplete]
        # No unretired writers remain after a full flush, so every register
        # is architecturally ready.
        self._scoreboard.clear()
        self.edm.squash()
        for bucket in (lane, *self._events.values()):
            bucket[:] = [
                (EV_WAKE, None)
                if kind != EV_FINISH_PUSH and payload is not None
                and payload.squashed else (kind, payload)
                for kind, payload in bucket]
        return flushed_dmbs

    # ------------------------------------------------------------------
    # The engine
    # ------------------------------------------------------------------

    def run(self, max_cycles: int = 500_000_000,
            no_retire_limit: Optional[int] = None) -> PipelineStats:
        """Simulate until HALT retires; return the statistics.

        ``drive([self])``: see :func:`drive` for the cycle budget and the
        no-retire watchdog.
        """
        drive([self], max_cycles, no_retire_limit)
        return self.stats

    def _cycles(self):
        """The engine: each resume runs exactly one cycle at ``self.now``.

        Yields ``RETIRED`` when an instruction retired this cycle,
        ``PROGRESS`` when some other stage progressed (an event fired, a
        push started, an instruction issued or dispatched, a squash), and
        ``IDLE`` otherwise; returns once HALT retires.  The clock belongs
        to the caller (:func:`drive`).

        Every stage is inlined into this one frame, which survives between
        cycles: dispatch is driven by the packed replay rows, the
        DMB-epoch checks and the write-buffer eligibility scan are unrolled
        inline, and pipeline occupancy and the issue histogram live in
        locals.  The ``finally`` writes them back to the core (and into
        ``stats``) when the generator finishes or is closed.
        """
        meta = self._replay if self._replay is not None else TraceMeta(
            self.trace)
        stats = self.stats
        params = self.params
        wb = self.wb
        wb_entries = wb.entries
        hierarchy = self.hierarchy
        store_commit = hierarchy.store_commit
        clean_to_pop = hierarchy.clean_to_pop
        rows = meta.rows
        trace_len = meta.length
        rob = self._rob
        events = self._events
        event_heap = self._event_heap
        incomplete = self._incomplete
        incomplete_heap = self._incomplete_heap
        scoreboard = self._scoreboard
        reg_waiters = self._reg_waiters
        store_epoch_outstanding = self._store_epoch_outstanding
        mem_epoch_outstanding = self._mem_epoch_outstanding
        active_dsbs = self._active_dsbs
        heappush = heapq.heappush
        heappop = heapq.heappop
        dyn_new = DynInst.__new__
        edm = self.edm
        spec_entries = edm.spec._entries
        ede_waiters = self._ede_waiters
        enforce_at_issue = self.policy.enforce_at_issue
        enforces_ede = self.policy.enforces_ede
        mark_complete = self._mark_complete
        index_store = self._index_store
        store_exec_waiters = self._store_exec_waiters
        visibility_append = self.store_visibility.append
        unindex_store = self._unindex_store
        forwarding_store = self._forwarding_store
        hier_load = hierarchy.load
        edm_complete = edm.complete
        on_complete = self.on_complete
        publish_ede = self._publish_ede
        remote_wait_blocks = self._remote_wait_blocks
        squash_at = self._squash_at
        enforce_wb = self.policy.enforce_at_write_buffer
        wb_capacity = wb.capacity
        wb_resident = wb._resident
        wb_dependents = wb._dependents
        wb_key_counters = wb.key_counters
        line_mask = ~(wb.line_size - 1)

        decode_width = params.decode_width
        rob_entries = params.rob_entries
        iq_entries = params.iq_entries
        lq_entries = params.load_queue_entries
        sq_entries = params.store_queue_entries
        issue_width = params.issue_width
        retire_width = params.retire_width
        int_alus = params.int_alus
        branch_units = params.branch_units
        load_ports = params.load_ports
        store_ports = params.store_ports
        agu_latency = params.agu_latency
        mul_latency = params.mul_latency
        branch_latency = params.branch_latency
        alu_latency = params.alu_latency
        dsb_penalty = params.dsb_penalty
        wb_outstanding = params.wb_outstanding
        wb_push_width = params.wb_push_width
        forward_latency = params.forward_latency

        iq = self._iq
        wb_entry_new = WbEntry.__new__
        #: Delta-1 event lane: with the default latencies (ALU/branch/AGU/
        #: forward all 1) almost every event fires on the very next cycle,
        #: so those skip the cycle-keyed dict + heap entirely and ride a
        #: double-buffered list.  A dict bucket for cycle ``c`` only ever
        #: holds events scheduled at cycles <= c-2 (plus, with a one-cycle
        #: DSB penalty, a wake-up, which does nothing), and the lane holds
        #: the ones scheduled at c-1, so draining bucket-then-lane fires
        #: events in the order they were scheduled.
        due = []
        due_next = []
        #: Without DSBs the oldest-incomplete heap is read only by the
        #: final HALT, where "all older complete" degenerates to "nothing
        #: but the HALT itself in flight" — skip maintaining the heap.
        track_incomplete = meta.has_dsb
        #: The rows carry static DMB epochs.  A squash refetch dispatches
        #: the flushed DMBs again, so every later instruction's epoch is
        #: its row epoch plus the number of DMBs flushed so far.
        epoch_offset = 0
        # Pipeline-occupancy state promoted to frame locals (the attribute
        # round-trips were measurable at one dispatch per instruction).
        # They are mirrored back onto the core in the ``finally`` below,
        # and around squash injection, which works on the attributes.
        iq_len = len(iq)
        rob_len = len(rob)
        lq_used = self._lq_used
        sq_used = self._sq_used
        fetch_index = self._fetch_index
        next_seq = self._next_seq
        halt_dyn = self._halt_dyn
        # Indexed by issued-count (0..issue_width); flushed into the stats
        # dict on exit.  List indexing beats dict get/set in the hot loop.
        hist = [0] * (issue_width + 1)
        cycles_total = 0
        issued_total = 0
        retired_total = 0
        dispatched_total = 0
        min_live_store = self._min_live_store_epoch
        min_live_mem = self._min_live_mem_epoch
        wb_dirty = True
        try:
            while True:
                now = self.now
                now_next = now + 1

                # --- events --------------------------------------------
                # Kind-dispatched drain with every handler inlined: these
                # fire once or twice per instruction.  Swap the delta-1
                # double buffer: events parked on ``due_next`` during the
                # previous cycle fire now, after any dict bucket (which
                # only holds older schedules).
                due, due_next = due_next, due
                if event_heap and event_heap[0] == now:
                    batch = events.pop(heappop(event_heap))
                    if due:
                        batch += due
                        del due[:]
                else:
                    batch = due
                if batch:
                    other_progress = True
                    for kind, dyn in batch:
                        if kind == EV_EXECUTE_DONE:
                            dyn.executed = True
                            dyn.execute_done_cycle = now
                            seq = dyn.seq
                            waiters = reg_waiters.pop(seq, None)
                            if waiters is not None:
                                for waiter in waiters:
                                    waiter.regs_outstanding -= 1
                            if dyn.is_store:
                                parked = store_exec_waiters.pop(seq, None)
                                if parked is not None:
                                    done = now + forward_latency
                                    if done <= now_next:
                                        bucket = due_next
                                    else:
                                        bucket = events.get(done)
                                        if bucket is None:
                                            bucket = events[done] = []
                                            heappush(event_heap, done)
                                    for load in parked:
                                        bucket.append((EV_LOAD_DATA, load))
                            if dyn.needs_write_buffer or dyn.completed:
                                continue
                            dyn.completed = True
                            dyn.complete_cycle = now
                            incomplete.pop(seq, None)
                            if dyn.is_ede:
                                for key in dyn.producer_keys:
                                    edm_complete(key, seq)
                                for waiter in ede_waiters.pop(seq, ()):
                                    waiter.e_deps_outstanding.discard(seq)
                            if dyn.is_store_class:
                                store_epoch_outstanding[
                                    dyn.store_epoch] -= 1
                            if dyn.is_memory:
                                mem_epoch_outstanding[dyn.mem_epoch] -= 1
                            if dyn.is_store:
                                unindex_store(dyn)
                            if on_complete is not None:
                                on_complete(dyn)
                        elif kind == EV_FINISH_PUSH:
                            # Free the entry (inlined wb.remove) and mark
                            # the instruction complete.  A write-buffer
                            # resident is never already complete.
                            entry = dyn
                            dyn = entry.dyn
                            seq = entry.seq
                            wb_dirty = True
                            wb_entries.remove(entry)
                            wb_resident.discard(seq)
                            wb.pushing -= 1
                            if dyn.is_ede:
                                wb.total_ede -= 1
                                for key in entry.ede_keys:
                                    wb_key_counters[key] -= 1
                            dependents = wb_dependents.pop(seq, None)
                            if dependents is not None:
                                for other in dependents:
                                    other.src_ids.discard(seq)
                            if dyn.is_store and dyn.inst.comment is not None:
                                visibility_append(
                                    (now, seq, dyn.inst.comment, dyn.addr))
                            if dyn.completed:
                                continue
                            dyn.completed = True
                            dyn.complete_cycle = now
                            incomplete.pop(seq, None)
                            if dyn.is_ede:
                                for key in dyn.producer_keys:
                                    edm_complete(key, seq)
                                for waiter in ede_waiters.pop(seq, ()):
                                    waiter.e_deps_outstanding.discard(seq)
                            if dyn.is_store_class:
                                store_epoch_outstanding[
                                    dyn.store_epoch] -= 1
                            if dyn.is_memory:
                                mem_epoch_outstanding[dyn.mem_epoch] -= 1
                            if dyn.is_store:
                                unindex_store(dyn)
                            if on_complete is not None:
                                on_complete(dyn)
                        elif kind == EV_LOAD_AGU_DONE:
                            store = forwarding_store(dyn)
                            if store is None:
                                done = hier_load(dyn.addr, now)
                            elif store.executed:
                                done = now + forward_latency
                            else:
                                # Forwarding store not executed yet: park
                                # the load; the store's execute-done event
                                # wakes it (see the is_store branch above).
                                bucket = store_exec_waiters.get(store.seq)
                                if bucket is None:
                                    store_exec_waiters[store.seq] = [dyn]
                                else:
                                    bucket.append(dyn)
                                continue
                            if done <= now_next:
                                due_next.append((EV_LOAD_DATA, dyn))
                            else:
                                bucket = events.get(done)
                                if bucket is None:
                                    events[done] = [(EV_LOAD_DATA, dyn)]
                                    heappush(event_heap, done)
                                else:
                                    bucket.append((EV_LOAD_DATA, dyn))
                        elif kind == EV_LOAD_DATA:
                            dyn.executed = True
                            dyn.execute_done_cycle = now
                            lq_used -= 1
                            seq = dyn.seq
                            waiters = reg_waiters.pop(seq, None)
                            if waiters is not None:
                                for waiter in waiters:
                                    waiter.regs_outstanding -= 1
                            # Loads are never store-class, always memory,
                            # and only complete through this event.
                            dyn.completed = True
                            dyn.complete_cycle = now
                            incomplete.pop(seq, None)
                            if dyn.is_ede:
                                for key in dyn.producer_keys:
                                    edm_complete(key, seq)
                                for waiter in ede_waiters.pop(seq, ()):
                                    waiter.e_deps_outstanding.discard(seq)
                            mem_epoch_outstanding[dyn.mem_epoch] -= 1
                            if on_complete is not None:
                                on_complete(dyn)
                        # EV_WAKE: nothing to do.
                    del batch[:]
                else:
                    other_progress = False

                # --- retire --------------------------------------------
                retired = 0
                while retired < retire_width and rob:
                    dyn = rob[0]
                    rc = dyn.retire_class
                    if rc == RETIRE_NORMAL:
                        if not dyn.executed:
                            break
                        if (dyn.needs_write_buffer
                                and len(wb_entries) >= wb_capacity):
                            stats.retire_stall_wb_full += 1
                            break
                    elif rc == RETIRE_DSB:
                        while (incomplete_heap
                               and incomplete_heap[0] not in incomplete):
                            heappop(incomplete_heap)
                        if (not incomplete_heap
                                or incomplete_heap[0] >= dyn.seq):
                            # Conditions hold; model the fixed pipeline
                            # drain-and-refill cost of a full barrier
                            # before releasing younger instructions.
                            if dyn.barrier_ready_cycle < 0:
                                dyn.barrier_ready_cycle = now
                                self._schedule(now + dsb_penalty, EV_WAKE)
                            if now < dyn.barrier_ready_cycle + dsb_penalty:
                                stats.retire_stall_dsb += 1
                                break
                        else:
                            stats.retire_stall_dsb += 1
                            break
                    elif rc == RETIRE_WAIT_KEY:
                        if (wb.older_ede_with_key(dyn.inst.edk_use, dyn.seq)
                                or (remote_wait_blocks is not None
                                    and remote_wait_blocks(dyn))):
                            stats.retire_stall_wait += 1
                            break
                    elif rc == RETIRE_WAIT_ALL:
                        if (wb.older_ede_any(dyn.seq)
                                or (remote_wait_blocks is not None
                                    and remote_wait_blocks(dyn))):
                            stats.retire_stall_wait += 1
                            break
                    else:  # RETIRE_HALT
                        if track_incomplete:
                            while (incomplete_heap
                                   and incomplete_heap[0] not in incomplete):
                                heappop(incomplete_heap)
                            if (incomplete_heap
                                    and incomplete_heap[0] < dyn.seq):
                                break
                        elif len(incomplete) > 1:
                            # HALT is the last dispatch, so anything else
                            # still in flight is older than it.
                            break
                    rob.popleft()
                    rob_len -= 1
                    dyn.retired = True
                    dyn.retire_cycle = now
                    retired += 1
                    if dyn.is_ede:
                        for key in dyn.producer_keys:
                            edm.retire(key, dyn.seq)
                    if dyn.needs_write_buffer:
                        sq_used -= 1
                        # Inlined wb.deposit (space was checked above),
                        # including the WbEntry constructor.
                        addr = dyn.addr
                        if enforce_wb and dyn.src_ids:
                            src_ids = {s for s in dyn.src_ids
                                       if s in wb_resident}
                        else:
                            src_ids = set()
                        entry = wb_entry_new(WbEntry)
                        entry.dyn = dyn
                        entry.seq = dyn.seq
                        entry.line = (
                            (addr & line_mask) if addr is not None else -1)
                        entry.src_ids = src_ids
                        entry.state = PENDING
                        entry.deposit_cycle = now
                        entry.ede_keys = dyn.ede_keys
                        wb_entries.append(entry)
                        wb_resident.add(dyn.seq)
                        wb_dirty = True
                        if src_ids:
                            for producer in src_ids:
                                bucket = wb_dependents.get(producer)
                                if bucket is None:
                                    wb_dependents[producer] = [entry]
                                else:
                                    bucket.append(entry)
                        if dyn.is_ede:
                            wb.total_ede += 1
                            for key in entry.ede_keys:
                                wb_key_counters[key] += 1
                    elif rc == RETIRE_NORMAL:
                        if not dyn.completed:
                            mark_complete(dyn)
                    elif rc == RETIRE_HALT:
                        mark_complete(dyn)
                        retired_total += retired
                        hist[0] += 1
                        cycles_total += 1
                        self._halted = True
                        return
                    else:  # DSB_SY / WAIT_KEY / WAIT_ALL_KEYS
                        dyn.executed = True
                        dyn.execute_done_cycle = now
                        mark_complete(dyn)
                retired_total += retired

                # --- write-buffer push ---------------------------------
                # The eligibility scan is pure (no side effects besides
                # starting pushes), so a scan that started none stays
                # empty until the buffer changes — a deposit, a push start
                # or a push completion (removal / srcID clear / epoch
                # drain): skip it while clean.  Dispatch-side epoch bumps
                # only make entries *more* blocked.
                pushes = 0
                if wb_entries and wb_dirty:
                    wb_dirty = False
                    in_flight = wb.pushing
                    if (in_flight < wb_outstanding
                            and in_flight != len(wb_entries)):
                        budget = wb_outstanding - in_flight
                        if budget > wb_push_width:
                            budget = wb_push_width
                        lines_seen = set()
                        seen_add = lines_seen.add
                        for entry in wb_entries:
                            line = entry.line
                            if line >= 0:
                                blocked = line in lines_seen
                                seen_add(line)
                                if (blocked or entry.state != PENDING
                                        or entry.src_ids):
                                    continue
                            elif entry.state != PENDING or entry.src_ids:
                                continue
                            epoch = entry.dyn.store_epoch
                            pointer = min_live_store
                            while (pointer < epoch
                                   and store_epoch_outstanding.get(
                                       pointer, 0) == 0):
                                pointer += 1
                            min_live_store = pointer
                            if pointer < epoch:
                                # Entries are in program order, so store
                                # epochs are non-decreasing: every later
                                # entry is epoch-blocked too.
                                break
                            wb.mark_pushing(entry)
                            dyn = entry.dyn
                            if dyn.is_store:
                                done = store_commit(dyn.addr, now_next)
                            elif dyn.is_writeback:
                                done = clean_to_pop(
                                    dyn.addr, now_next,
                                    tag=dyn.inst.comment, inst_seq=dyn.seq)
                            else:  # JOIN: no data, done once srcIDs clear
                                done = now_next
                            if done <= now_next:
                                due_next.append((EV_FINISH_PUSH, entry))
                            else:
                                bucket = events.get(done)
                                if bucket is None:
                                    events[done] = [(EV_FINISH_PUSH, entry)]
                                    heappush(event_heap, done)
                                else:
                                    bucket.append((EV_FINISH_PUSH, entry))
                            pushes += 1
                            if pushes >= budget:
                                break
                        if pushes:
                            # Entries went PUSHING; budget-limited
                            # eligibles may push next cycle.
                            wb_dirty = True

                # --- issue ---------------------------------------------
                issued = 0
                if iq:
                    if active_dsbs:
                        while (active_dsbs
                               and active_dsbs[0] not in incomplete):
                            active_dsbs.pop(0)
                        dsb_barrier = (active_dsbs[0] if active_dsbs
                                       else None)
                    else:
                        dsb_barrier = None
                    int_free = int_alus
                    branch_free = branch_units
                    load_free = load_ports
                    store_free = store_ports
                    # ``remaining`` (the post-issue IQ) is materialized
                    # lazily on the first successful issue: a fully blocked
                    # cycle — the common case under heavy fencing — walks
                    # the IQ without allocating anything.
                    remaining = None
                    index = 0
                    for dyn in iq:
                        if issued >= issue_width:
                            break
                        if dsb_barrier is not None and dyn.seq > dsb_barrier:
                            # A DSB blocks execution of everything younger;
                            # the IQ is in program order.
                            break
                        if dyn.regs_outstanding or dyn.e_deps_outstanding:
                            if remaining is not None:
                                remaining.append(dyn)
                            index += 1
                            continue
                        if dyn.is_memory:
                            epoch = dyn.mem_epoch
                            pointer = min_live_mem
                            while (pointer < epoch
                                   and mem_epoch_outstanding.get(
                                       pointer, 0) == 0):
                                pointer += 1
                            min_live_mem = pointer
                            if pointer < epoch:
                                if remaining is not None:
                                    remaining.append(dyn)
                                index += 1
                                continue
                        kind = dyn.exec_kind
                        if kind == EXEC_LOAD:
                            if not load_free:
                                if remaining is not None:
                                    remaining.append(dyn)
                                index += 1
                                continue
                            load_free -= 1
                            dyn.issued = True
                            dyn.issue_cycle = now
                            done = now + agu_latency
                            if done <= now_next:
                                due_next.append((EV_LOAD_AGU_DONE, dyn))
                            else:
                                bucket = events.get(done)
                                if bucket is None:
                                    events[done] = [(EV_LOAD_AGU_DONE, dyn)]
                                    heappush(event_heap, done)
                                else:
                                    bucket.append((EV_LOAD_AGU_DONE, dyn))
                        else:
                            if kind == EXEC_AGU:
                                # DMB ST: younger store-class instructions
                                # stall until all older store-class
                                # instructions complete (SFENCE-like).
                                epoch = dyn.store_epoch
                                pointer = min_live_store
                                while (pointer < epoch
                                       and store_epoch_outstanding.get(
                                           pointer, 0) == 0):
                                    pointer += 1
                                min_live_store = pointer
                                if pointer < epoch or not store_free:
                                    if remaining is not None:
                                        remaining.append(dyn)
                                    index += 1
                                    continue
                                store_free -= 1
                                done = now + agu_latency
                            elif kind == EXEC_BRANCH:
                                if not branch_free:
                                    if remaining is not None:
                                        remaining.append(dyn)
                                    index += 1
                                    continue
                                branch_free -= 1
                                done = now + branch_latency
                            elif kind == EXEC_MUL:
                                if not int_free:
                                    if remaining is not None:
                                        remaining.append(dyn)
                                    index += 1
                                    continue
                                int_free -= 1
                                done = now + mul_latency
                            else:  # EXEC_ALU
                                if not int_free:
                                    if remaining is not None:
                                        remaining.append(dyn)
                                    index += 1
                                    continue
                                int_free -= 1
                                done = now + alu_latency
                            dyn.issued = True
                            dyn.issue_cycle = now
                            if done <= now_next:
                                due_next.append((EV_EXECUTE_DONE, dyn))
                            else:
                                bucket = events.get(done)
                                if bucket is None:
                                    events[done] = [(EV_EXECUTE_DONE, dyn)]
                                    heappush(event_heap, done)
                                else:
                                    bucket.append((EV_EXECUTE_DONE, dyn))
                        if remaining is None:
                            remaining = iq[:index]
                        issued += 1
                        index += 1
                    if issued:
                        if index < len(iq):
                            remaining.extend(iq[index:])
                        iq = remaining
                        self._iq = remaining
                        iq_len -= issued

                # --- dispatch ------------------------------------------
                dispatched = 0
                if fetch_index < trace_len and halt_dyn is None:
                    while (dispatched < decode_width
                           and fetch_index < trace_len):
                        if squash_at and fetch_index in squash_at:
                            squash_at.discard(fetch_index)
                            self._fetch_index = fetch_index
                            self._lq_used = lq_used
                            self._sq_used = sq_used
                            epoch_offset += self._inject_squash(due_next)
                            fetch_index = self._fetch_index
                            lq_used = self._lq_used
                            sq_used = self._sq_used
                            rob_len = iq_len = 0
                            spec_entries = edm.spec._entries
                            other_progress = True
                            break
                        if rob_len >= rob_entries:
                            stats.dispatch_stall_rob += 1
                            break
                        row = rows[fetch_index]
                        needs_iq = row[10]
                        if needs_iq and iq_len >= iq_entries:
                            stats.dispatch_stall_iq += 1
                            break
                        is_load = row[2]
                        if is_load and lq_used >= lq_entries:
                            stats.dispatch_stall_lsq += 1
                            break
                        is_store_class = row[5]
                        if is_store_class and sq_used >= sq_entries:
                            stats.dispatch_stall_lsq += 1
                            break
                        seq = next_seq
                        # Inlined DynInst constructor (same field stores
                        # as DynInst.__init__, minus the call frame — this
                        # runs once per instruction).
                        dyn = dyn_new(DynInst)
                        dyn.seq = seq
                        (dyn.inst, dyn.opcode,
                         dyn.is_load, dyn.is_store, dyn.is_writeback,
                         dyn.is_store_class, dyn.is_memory, dyn.is_barrier,
                         dyn.is_branch, dyn.is_ede,
                         _ign, dyn.needs_write_buffer, dyn.is_wait,
                         dyn.retire_class, dyn.addr, dyn.size, dyn.words,
                         dyn.producer_keys, dyn.exec_kind,
                         dyn.store_epoch, dyn.mem_epoch, dyn.result_regs,
                         _ign, _ign, _ign, _ign, _ign, dyn.ede_keys) = row
                        if epoch_offset:
                            dyn.store_epoch += epoch_offset
                            dyn.mem_epoch += epoch_offset
                        dyn.regs_outstanding = 0
                        dyn.e_deps_outstanding = None
                        dyn.src_ids = ()
                        dyn.dispatch_cycle = now
                        dyn.issue_cycle = -1
                        dyn.execute_done_cycle = -1
                        dyn.retire_cycle = -1
                        dyn.complete_cycle = -1
                        dyn.issued = False
                        dyn.executed = False
                        dyn.retired = False
                        dyn.completed = False
                        dyn.squashed = False
                        dyn.barrier_ready_cycle = -1
                        next_seq += 1
                        fetch_index += 1
                        dispatched += 1
                        if row[9]:  # is_ede: access the speculative EDM
                            if dyn.retire_class == RETIRE_WAIT_ALL:
                                # WAIT_ALL_KEYS produces every key so later
                                # consumers chain behind it; its own waiting
                                # happens at retirement.
                                for key in dyn.producer_keys:
                                    spec_entries[key] = seq
                            else:
                                # EDM decode: look up consumer keys, then
                                # define the producer key; keep producers
                                # still in flight, deduped in operand order.
                                prods = None
                                for key in row[26]:  # consumer_keys
                                    p = spec_entries.get(key)
                                    if (p is not None and p in incomplete
                                            and (prods is None
                                                 or p not in prods)):
                                        if prods is None:
                                            prods = [p]
                                        else:
                                            prods.append(p)
                                pk = dyn.producer_keys
                                if pk:
                                    spec_entries[pk[0]] = seq
                                if prods is not None:
                                    producers = tuple(prods)
                                    dyn.src_ids = producers
                                    if (not dyn.is_wait
                                            and (enforce_at_issue
                                                 or (is_load
                                                     and enforces_ede))):
                                        dyn.e_deps_outstanding = set(prods)
                                        for producer in prods:
                                            bucket = ede_waiters.get(
                                                producer)
                                            if bucket is None:
                                                ede_waiters[producer] = [dyn]
                                            else:
                                                bucket.append(dyn)
                            if publish_ede is not None:
                                publish_ede(dyn)
                        for reg in row[22]:  # timing_src_regs
                            writer = scoreboard.get(reg)
                            if (writer is not None and not writer.executed
                                    and not writer.squashed):
                                dyn.regs_outstanding += 1
                                bucket = reg_waiters.get(writer.seq)
                                if bucket is None:
                                    reg_waiters[writer.seq] = [dyn]
                                else:
                                    bucket.append(dyn)
                        for reg in row[23]:  # timing_dst_regs
                            scoreboard[reg] = dyn
                        # Barrier epochs.  Architecturally DMB ST only
                        # orders the store class, but the paper's simulator
                        # (gem5) implements barriers conservatively in the
                        # LSQ: younger memory operations stall until the
                        # barrier's older accesses complete.  That is what
                        # makes the paper's SU configuration only ~5%
                        # faster than B, so both DMB flavours advance both
                        # epochs (see replay.build_rows).  Non-memory
                        # instructions still proceed — the difference from
                        # DSB SY that the paper calls out.
                        if is_store_class:
                            epoch = dyn.store_epoch
                            store_epoch_outstanding[epoch] = (
                                store_epoch_outstanding.get(epoch, 0) + 1)
                        if row[6]:  # is_memory
                            epoch = dyn.mem_epoch
                            mem_epoch_outstanding[epoch] = (
                                mem_epoch_outstanding.get(epoch, 0) + 1)
                        incomplete[seq] = dyn
                        if track_incomplete:
                            heappush(incomplete_heap, seq)
                        rob.append(dyn)
                        rob_len += 1
                        if is_load:
                            lq_used += 1
                        if is_store_class:
                            sq_used += 1
                            if row[3]:  # is_store
                                index_store(dyn)
                        if needs_iq:
                            iq.append(dyn)
                            iq_len += 1
                        else:
                            dyn.executed = True
                            dyn.execute_done_cycle = now
                            if row[24]:  # is_dsb
                                active_dsbs.append(seq)
                            elif row[25]:  # is_halt
                                halt_dyn = dyn
                                break
                    dispatched_total += dispatched

                hist[issued] += 1
                cycles_total += 1
                issued_total += issued
                if retired:
                    yield RETIRED
                elif (pushes or issued or dispatched or other_progress):
                    yield PROGRESS
                else:
                    yield IDLE
        finally:
            self._fetch_index = fetch_index
            self._next_seq = next_seq
            self._lq_used = lq_used
            self._sq_used = sq_used
            self._halt_dyn = halt_dyn
            stats.retired += retired_total
            stats.dispatched += dispatched_total
            stats.issued += issued_total
            stats.cycles += cycles_total
            shist = stats.issue_histogram
            for count, cycles in enumerate(hist):
                if cycles:
                    shist[count] = shist.get(count, 0) + cycles
            self._min_live_store_epoch = min_live_store
            self._min_live_mem_epoch = min_live_mem

    def _stuck_report(self, reason: str) -> str:
        """Rich pipeline-state dump for any stuck-simulation error."""
        head = self._rob[0] if self._rob else None
        lines = [
            "%s at cycle %d" % (reason, self.now),
            "  fetch index: %d / %d" % (self._fetch_index, len(self.trace)),
            "  ROB: %d entries, head=%r" % (len(self._rob), head),
            "  IQ: %d entries" % len(self._iq),
            "  WB: %d entries" % len(self.wb),
        ]
        if self._event_heap:
            next_cycle = self._event_heap[0]
            lines.append(
                "  event heap: %d scheduled cycles, head=cycle %d (%+d) "
                "with %d event(s)"
                % (len(self._event_heap), next_cycle, next_cycle - self.now,
                   len(self._events.get(next_cycle, ()))))
        else:
            lines.append("  event heap: empty (nothing will ever complete)")
        if self._active_dsbs:
            blocking = [seq for seq in self._active_dsbs
                        if seq in self._incomplete]
            lines.append(
                "  active DSBs: seqs %s, oldest blocking=%s"
                % (list(self._active_dsbs),
                   "#%d" % blocking[0] if blocking else "none"))
        else:
            lines.append("  active DSBs: none")
        if self._incomplete:
            oldest = min(self._incomplete)
            lines.append(
                "  incomplete: %d in flight, oldest #%d=%r"
                % (len(self._incomplete), oldest, self._incomplete[oldest]))
        if head is not None:
            lines.append(
                "  head state: issued=%s executed=%s regs_out=%d edeps=%s"
                % (head.issued, head.executed, head.regs_outstanding,
                   # Remote-dependence tokens (tuples) sort after seqs.
                   sorted(head.e_deps_outstanding or (),
                          key=lambda dep: (isinstance(dep, tuple), dep))))
        for entry in self.wb.entries:
            lines.append("  wb entry #%d state=%d src_ids=%s line=%#x"
                         % (entry.seq, entry.state, sorted(entry.src_ids),
                            entry.line))
        return "\n".join(lines)


def drive(cores: Sequence[OutOfOrderCore],
          max_cycles: int = 500_000_000,
          no_retire_limit: Optional[int] = None) -> None:
    """The clock: run ``cores`` under one global clock until all halt.

    Every cycle each live core's ``now`` is set and its engine resumed
    once, in list order — the deterministic total order underneath every
    cross-core interaction (bus publishes, coherence probes, controller
    traffic).  When no core made progress, time fast-forwards to the
    earliest scheduled event across the live cores, and each live core's
    zero-issue histogram bucket is charged the skipped cycles.

    Two progress guards protect the caller from a runaway model:
    ``max_cycles`` bounds the total simulated time, and the no-retire
    watchdog (``no_retire_limit``, defaulting to the first core's
    ``params.watchdog_no_retire``; ``0`` disables) aborts when no core has
    retired an instruction for that many cycles, fast-forwarded ones
    included — catching livelocks where something stays scheduled but no
    ROB head drains, which the quiescence-based deadlock detector cannot
    see.  Both raise :class:`SimulationError`
    carrying every live core's pipeline-state report.

    The cyclic GC is paused for the run: the engine allocates heavily
    (DynInst, events) but forms no reference cycles, and young-generation
    collections were a measurable share of the run.
    """
    if no_retire_limit is None:
        no_retire_limit = cores[0].params.watchdog_no_retire
    live = [(core, core._cycles()) for core in cores if not core._halted]
    if not live:
        return
    now = last_retire = min(core.now for core, _ in live)
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        while True:
            if now > max_cycles:
                _fail(live, now, "exceeded the %d-cycle budget" % max_cycles)
            flags = IDLE
            halted = False
            for core, cycle in live:
                core.now = now
                try:
                    flags |= next(cycle)
                except StopIteration:  # HALT retired this cycle
                    flags |= RETIRED
                    halted = True
            if flags & RETIRED:
                last_retire = now
            elif no_retire_limit and now - last_retire > no_retire_limit:
                _fail(live, now,
                      "no instruction retired for %d cycles (watchdog "
                      "limit %d)" % (now - last_retire, no_retire_limit))
            if halted:
                live = [entry for entry in live if not entry[0]._halted]
                if not live:
                    return
            if flags:
                now += 1
                continue
            pending = [core._event_heap[0] for core, _ in live
                       if core._event_heap]
            if not pending:
                _fail(live, now, "pipeline deadlock (no stage progressed, "
                      "nothing scheduled)")
            target = min(pending)
            deadline = last_retire + no_retire_limit + 1
            if no_retire_limit and deadline < target \
                    and deadline <= max_cycles:
                # The skipped cycles retire nothing either.
                _fail(live, deadline,
                      "no instruction retired for %d cycles (watchdog "
                      "limit %d)" % (deadline - last_retire, no_retire_limit))
            skipped = target - now - 1
            if skipped > 0:
                for core, _ in live:
                    core.stats.record_issue_cycles(0, skipped)
            now = target
    finally:
        for _, cycle in live:
            cycle.close()
        if gc_was_enabled:
            gc.enable()


def _fail(live, now: int, reason: str) -> None:
    """Raise :class:`SimulationError` with every live core's report.

    Closing an engine runs its ``finally``, which writes the frame locals
    back to the core before :meth:`~OutOfOrderCore._stuck_report` reads
    them.
    """
    for core, cycle in live:
        cycle.close()
        core.now = now
    raise SimulationError("\n".join(
        core._stuck_report(reason) for core, _ in live))
