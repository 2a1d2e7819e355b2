"""The cycle-level out-of-order core model.

:class:`Core` replays a dynamic micro-op trace (produced by the functional
executor) through an out-of-order pipeline with the Table-1 organisation:

``fetch -> (front-end latency) -> rename/dispatch -> issue -> execute ->
writeback -> commit``

The model is trace driven: wrong-path instructions are never fetched, so
branch mispredictions appear as fetch stalls whose length is the real
resolution delay of the branch plus the redirect and the scheme-dependent
repair latency of the register sharing tracker.  Memory-order violations
and SMB validation failures, in contrast, squash *correct-path* in-flight
instructions and therefore exercise the full recovery machinery: the rename
map is restored from the commit rename map, the free lists fall back to
their committed image, and the sharing tracker is asked to
``flush_to_committed`` (Section 4.1's "squash at Commit" path).

Move elimination and speculative memory bypassing are performed at rename
time by :class:`repro.rename.renamer.Renamer`; this module supplies the ROB
producer lookup SMB needs, validates bypassed loads at writeback against
the architecturally correct value carried by the trace, and trains the
Instruction Distance predictor at commit through the
:class:`repro.core.smb.SmbEngine`.
"""

from __future__ import annotations

from collections import deque
from operator import attrgetter
from typing import TYPE_CHECKING

from repro.backend.inflight import InflightOp
from repro.backend.lsq import ForwardingState, LoadStoreQueue
from repro.backend.rob import ReorderBuffer
from repro.backend.scheduler import FunctionalUnits, IssueQueue
from repro.bpred.btb import BranchTargetBuffer
from repro.bpred.ras import ReturnAddressStack
from repro.bpred.tage import TageBranchPredictor
from repro.common.history import HistoryCheckpoint, PathHistory, ShiftHistory
from repro.core.smb import SmbEngine
from repro.core.tracker import ReclaimDecision, make_tracker
from repro.isa.executor import DynamicOp, Trace
from repro.isa.opcodes import OpClass, Opcode
from repro.isa.registers import NUM_FP_REGS, NUM_INT_REGS, RegClass
from repro.memdep.store_sets import StoreSetsPredictor
from repro.memory.hierarchy import MemoryHierarchy
from repro.pipeline.config import CoreConfig
from repro.pipeline.result import SimulationResult
from repro.pipeline.snapshot import CoreSnapshot
from repro.rename.maps import CommitRenameMap, FreeList, RenameMap
from repro.rename.renamer import ProducerInfo, Renamer
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.trace import PipelineTracer

if TYPE_CHECKING:  # the sampling module imports this one
    from repro.pipeline.sampling import WarmState

_NEVER = 1 << 60
_MASK64 = (1 << 64) - 1
#: Sort key for oldest-first ordering (same-cycle writebacks, the ready list).
_BY_SEQ = attrgetter("seq")


class Core:
    """A configurable out-of-order core simulator."""

    def __init__(self, config: CoreConfig | None = None) -> None:
        self.config = config or CoreConfig()

    # ------------------------------------------------------------------ setup --

    def _reset(self, trace: Trace) -> None:
        config = self.config
        self.trace = trace
        self.cycle = 0
        self.committed = 0
        self.fetch_index = 0
        self.fetch_blocked_until = 0
        self.pending_redirect: InflightOp | None = None
        self.frontend_queue: deque[InflightOp] = deque()
        self._last_fetch_line = -1

        # Front end.
        self.branch_predictor = TageBranchPredictor(config.branch_predictor)
        self.btb = BranchTargetBuffer(config.btb_entries, config.btb_ways)
        self.ras = ReturnAddressStack(config.ras_depth)
        self.history = ShiftHistory(max_bits=256)
        self.path = PathHistory(max_bits=32)

        # Renaming.
        self.rename_map = RenameMap()
        self.commit_map = CommitRenameMap()
        self.int_free = FreeList(RegClass.INT, 0, config.num_int_pregs, NUM_INT_REGS)
        self.fp_free = FreeList(RegClass.FP, config.num_int_pregs, config.num_fp_pregs,
                                NUM_FP_REGS)
        for index in range(NUM_INT_REGS):
            self.rename_map.raw()[index] = index
            self.commit_map.raw()[index] = index
        for index in range(NUM_FP_REGS):
            self.rename_map.raw()[NUM_INT_REGS + index] = config.num_int_pregs + index
            self.commit_map.raw()[NUM_INT_REGS + index] = config.num_int_pregs + index

        self.tracker = make_tracker(config.tracker)
        self.smb_engine = SmbEngine(config.smb, num_arch_regs=NUM_INT_REGS + NUM_FP_REGS)
        self._smb_train_commit = (self.smb_engine.train_commit
                                  if config.smb.enabled else None)
        self._commit_csns = (self.smb_engine.csn_table.raw()
                             if config.smb.enabled else None)
        self.renamer = Renamer(self.rename_map, self.int_free, self.fp_free, self.tracker,
                               config.move_elimination, self.smb_engine)

        # Back end.
        self.rob = ReorderBuffer(config.rob_entries, lazy_reclaim=config.lazy_reclaim)
        self.iq = IssueQueue(config.iq_entries)
        self.lsq = LoadStoreQueue(config.lq_entries, config.sq_entries)
        # The containers whose lengths are the occupancies the rename stage
        # checks, bound once: each structure updates them in place.
        self._rob_window = self.rob.window()
        self._rob_retained = self.rob.retained()
        self._lq = self.lsq.loads()
        self._sq = self.lsq.stores()
        self._int_free_regs = self.int_free.free_registers()
        self._fp_free_regs = self.fp_free.free_registers()
        self.fus = FunctionalUnits()
        self.store_sets = StoreSetsPredictor(config.store_sets)
        self.memory = MemoryHierarchy(config.memory)

        # Physical register ready times, indexed by global preg number.  A
        # flat list beats a dict here: the issue stage probes it for every
        # source of every candidate instruction.
        self.preg_ready: list[int] = [0] * config.num_phys_regs
        # Event-driven wakeup state: instructions whose operands are all
        # ready (oldest first; ``_ready_dirty`` marks an out-of-order
        # wakeup append that needs a re-sort), per-preg lists of
        # instructions waiting for that register's writeback, and per-store
        # lists (keyed by the store's seq) of loads waiting for that store's
        # writeback.  Together they replace the every-cycle full-queue
        # readiness scan: an instruction is examined again only when one of
        # its producers, or the store it waits on, completes.
        self._ready: list[InflightOp] = []
        self._ready_dirty = False
        self._consumers: dict[int, list[InflightOp]] = {}
        self._store_waiters: dict[int, list[InflightOp]] = {}
        # Writeback event wheel: completion cycle -> ops finishing that
        # cycle.  The run loop advances one cycle at a time, so the
        # writeback stage pops exactly one bucket per cycle (O(1)) instead
        # of paying heapq's O(log n) per scheduled op.
        self.execution_wheel: dict[int, list[InflightOp]] = {}
        # Functional unit pool per op class (dict lookup beats the if-chain
        # in FunctionalUnits.pool_for on the dispatch hot path).
        self._pool_of_class = {
            op_class: self.fus.pool_for(op_class) for op_class in OpClass
        }
        # Fixed execution latency per op class (FDIV is special-cased).
        self._latency_of_class = {
            OpClass.INT_ALU: config.int_alu_latency,
            OpClass.INT_MOVE: config.int_alu_latency,
            OpClass.INT_MUL: config.int_mul_latency,
            OpClass.INT_DIV: config.int_div_latency,
            OpClass.FP_ALU: config.fp_alu_latency,
            OpClass.FP_MOVE: config.fp_alu_latency,
            OpClass.FP_MULDIV: config.fp_mul_latency,
            OpClass.BRANCH: config.branch_latency,
            OpClass.NOP: config.int_alu_latency,
            OpClass.LOAD: config.int_alu_latency,
            OpClass.STORE: config.store_latency,
        }

        # Statistics.
        self.counters: dict[str, float] = {
            "conditional_branches": 0, "branch_mispredictions": 0, "btb_misses": 0,
            "ras_mispredictions": 0, "memory_order_violations": 0,
            "traps_avoided_by_smb": 0, "false_dependencies": 0,
            "bypass_validation_flushes": 0, "committed_loads": 0,
            "committed_bypassed_loads": 0, "committed_eliminated_moves": 0,
            "fetch_stall_cycles": 0, "rename_stall_cycles": 0,
            "recovery_extra_cycles": 0, "release_walks": 0,
        }
        # Event-driven cycle skipping bookkeeping.  ``_progress`` is set by
        # any stage that changed machine state this cycle; a cycle that ends
        # with it still False cannot be distinguished from the cycles that
        # follow it until the next scheduled event, so the run loop jumps
        # straight there.  ``_rename_stalled`` remembers whether the rename
        # stage charged a stall this cycle (the skipped span then charges
        # the same stall per cycle).
        self._progress = False
        self._rename_stalled = False
        self._skipped_cycles = 0
        # Commit sequence numbers continue across detailed windows of a
        # sampled simulation (restored from a snapshot); the SMB commit
        # training relies on their monotonicity.
        self._csn_base = 0
        self._first_commit_cycle = -1
        # Optional commit-count milestones (sampled simulation): the cycle
        # at which the N-th micro-op of this run commits, used to bound the
        # measured window inside a warmup/window/cooldown detailed stretch
        # without draining the pipeline at the measurement boundaries.
        self._milestone_commits: frozenset[int] | None = None
        self.milestone_cycles: dict[int, int] = {}
        self._last_share_attempt_seq: int | None = None
        self._share_attempt_gaps = 0.0
        self._share_attempt_count = 0
        self._last_reclaim_check_seq: int | None = None
        self._reclaim_check_gaps = 0.0
        self._reclaim_check_count = 0
        # Everything the dispatch path derives from the *static* instruction
        # -- move-elimination candidacy, functional unit pool, execution
        # latency, NOP-ness -- cached by static index so each dynamic op
        # costs one dict probe instead of re-deriving all four.
        self._static_dispatch_cache: dict[int, tuple] = {}
        # Opt-in pipeline event tracing.  ``None`` (the default) keeps every
        # stage on its fast path: each hook site hoists this to a local and
        # pays one ``is not None`` test per micro-op at most.  The tracer
        # only reads pipeline state, so results are bit-identical either
        # way (pinned by tests/test_telemetry.py).
        self.tracer = (PipelineTracer(config.trace, workload=trace.name,
                                      scheme=config.tracker.scheme,
                                      config_label=config.label())
                       if config.trace is not None else None)

    # -------------------------------------------------------------------- run --

    def run(self, trace: Trace, max_cycles: int | None = None,
            resume: CoreSnapshot | None = None,
            commit_milestones=()) -> SimulationResult:
        """Replay ``trace`` through the pipeline and return the simulation result.

        ``resume`` warm-starts the run from a :class:`CoreSnapshot` taken
        by :meth:`snapshot` after an earlier run: predictors, caches,
        rename state and the sharing tracker begin where the previous
        detailed window left them, which is what lets the sampled
        simulation driver interleave fast-forward gaps between windows.

        ``commit_milestones`` records (in :attr:`milestone_cycles`) the
        cycle at which each given commit count is reached -- the sampled
        driver uses two milestones to bound the measured window inside a
        longer detailed run, keeping pipeline-fill and drain transients
        outside the measurement.
        """
        if len(trace) == 0:
            raise ValueError("cannot simulate an empty trace")
        self._reset(trace)
        if resume is not None:
            self._restore_snapshot(resume)
        if commit_milestones:
            self._milestone_commits = frozenset(commit_milestones)
        limit = max_cycles or self.config.max_cycles_per_instruction * len(trace)
        total = len(trace.ops)
        do_commit = self._do_commit
        do_complete = self._do_complete
        do_issue = self._do_issue
        do_rename = self._do_rename
        do_fetch = self._do_fetch
        skipping = self.config.cycle_skipping
        counters = self.counters
        while self.committed < total:
            self._progress = False
            self._rename_stalled = False
            do_commit()
            do_complete()
            do_issue()
            do_rename()
            do_fetch()
            self.cycle += 1
            if skipping and not self._progress:
                # Nothing fetched, renamed, issued, completed or committed:
                # the machine state is frozen until the next scheduled
                # event, so the intervening cycles are pure stall
                # bookkeeping.  Jump there (never past the deadlock guard
                # below), charging the skipped span to the same counters the
                # per-cycle walk would have incremented (the differential
                # tests pin this to be bit-identical).
                target = self._next_event_cycle()
                if target > limit + 1:
                    target = limit + 1
                span = target - self.cycle
                if span > 0:
                    if self.pending_redirect is not None \
                            or self.fetch_blocked_until >= self.cycle:
                        # With no redirect pending, ``target`` never exceeds
                        # ``fetch_blocked_until`` (it is a next-event
                        # candidate), so either every skipped cycle is
                        # fetch-stalled or none is.
                        counters["fetch_stall_cycles"] += span
                    if self._rename_stalled:
                        # The rename head was mature and resources were
                        # unavailable this cycle; neither can change during
                        # the frozen span.
                        counters["rename_stall_cycles"] += span
                    self._skipped_cycles += span
                    self.cycle = target
            if self.cycle > limit:
                raise RuntimeError(
                    f"simulation exceeded {limit} cycles after committing "
                    f"{self.committed}/{total} micro-ops of {trace.name!r}; "
                    "this indicates a pipeline deadlock")
        return self._build_result()

    def _next_event_cycle(self) -> int:
        """The earliest future cycle at which any stage could make progress.

        Only called on cycles where nothing progressed, with ``self.cycle``
        already advanced to the first unsimulated cycle.  The invariant every
        contributor must uphold is *never under-report*: returning a cycle
        that is too early merely costs one more idle evaluation, returning
        one that is too late would skip over real work and change timing.

        Candidate events:

        * the writeback wheel's earliest bucket -- completions drive
          wake-ups (``preg_ready`` never holds a future cycle), commit
          eligibility, redirect resolution and memory-dependence releases
          (a load waiting on a store rejoins the ready list when the
          store's bucket pops);
        * ``fetch_blocked_until`` (I-cache miss, BTB miss redirect, trap or
          recovery penalty) when no redirect is pending;
        * the front-end queue head maturing past ``frontend_depth``;
        * a ready instruction waiting on a busy non-pipelined functional
          unit (the only issue blocker not already covered by the wheel);
        * the memory hierarchy's passive timed state (MSHR completions,
          DRAM bank-busy expiry) -- advisory, always safe to include.
        """
        cycle = self.cycle
        nxt = _NEVER
        wheel = self.execution_wheel
        if wheel:
            nxt = min(wheel)
        if self.pending_redirect is None:
            blocked_until = self.fetch_blocked_until
            if cycle <= blocked_until < nxt:
                nxt = blocked_until
        queue = self.frontend_queue
        if queue:
            mature_at = queue[0].fetch_cycle + self.config.frontend_depth
            if cycle <= mature_at < nxt:
                nxt = mature_at
        for entry in self._ready:
            # Ready instructions are blocked on a busy non-pipelined unit
            # or on the issue width.  Loads waiting on a store have left
            # the list for the store's wakeup list, whose release is a
            # writeback event accounted for above.  Only the non-pipelined
            # pool adds a candidate of its own.
            pool = entry.fu_pool
            if not pool.pipelined:
                free_at = pool.next_free_cycle(cycle)
                if free_at < nxt:
                    nxt = free_at
        memory_event = self.memory.next_event_cycle(cycle - 1)
        if memory_event is not None and memory_event < nxt:
            nxt = memory_event
        return nxt

    # ------------------------------------------------------------------ fetch --

    def _do_fetch(self) -> None:
        config = self.config
        if self.pending_redirect is not None or self.cycle < self.fetch_blocked_until:
            self.counters["fetch_stall_cycles"] += 1
            return
        fetched = 0
        taken_branches = 0
        ops = self.trace.ops
        total_ops = len(ops)
        queue = self.frontend_queue
        fetch_width = config.fetch_width
        queue_limit = config.frontend_queue_entries
        line_bytes = self.memory.config.l1i.line_bytes
        hit_latency = self.memory.config.l1i.hit_latency
        history = self.history
        path = self.path
        tracer = self.tracer
        fetch_index = self.fetch_index
        while (fetched < fetch_width
               and fetch_index < total_ops
               and len(queue) < queue_limit):
            op = ops[fetch_index]
            # Instruction cache: one access per new line.
            line = op.pc // line_bytes
            if line != self._last_fetch_line:
                latency = self.memory.access_instruction(op.pc, self.cycle)
                self._last_fetch_line = line
                if latency > hit_latency:
                    self.fetch_blocked_until = self.cycle + latency
                    self._progress = True
                    break
            # The op carries the low 64 history bits and the whole path
            # register, which is 32 bits wide and so needs no masking.
            entry = InflightOp(op, self.cycle, history._value & _MASK64, path._value)
            stop_fetching = False
            if op.is_branch:
                stop_fetching, taken_branches = self._fetch_branch(entry, taken_branches)
            queue.append(entry)
            if tracer is not None:
                tracer.on_fetch(entry, self.cycle)
            fetch_index += 1
            fetched += 1
            if entry.branch_mispredicted:
                self.pending_redirect = entry
                break
            if stop_fetching:
                break
        if fetched:
            self.fetch_index = fetch_index
            self._progress = True

    def _fetch_branch(self, entry: InflightOp, taken_branches: int) -> tuple[bool, int]:
        """Predict a branch at fetch time; returns (stop fetching, taken branches so far)."""
        config = self.config
        op = entry.op
        stop = False
        if op.is_conditional_branch:
            self.counters["conditional_branches"] += 1
            prediction = self.branch_predictor.predict(op.pc, self.history, self.path)
            entry.predicted_taken = prediction.taken
            mispredicted = prediction.taken != op.taken
            self.branch_predictor.update(op.pc, op.taken, prediction)
            self.history.push(op.taken)
            self.path.push(op.pc)
            if mispredicted:
                entry.branch_mispredicted = True
                self.counters["branch_mispredictions"] += 1
            elif prediction.taken:
                stop = self._taken_branch_btb(op, taken_branches)
        elif op.opcode is Opcode.RET:
            predicted = self.ras.pop()
            self.path.push(op.pc)
            if predicted is None or predicted != op.target_pc:
                entry.branch_mispredicted = True
                self.counters["ras_mispredictions"] += 1
                self.counters["branch_mispredictions"] += 1
            else:
                stop = True
        else:
            # Direct jumps and calls are always (correctly) predicted taken.
            self.path.push(op.pc)
            if op.opcode is Opcode.CALL:
                self.ras.push(op.pc + 4)
            stop = self._taken_branch_btb(op, taken_branches)
        if op.taken:
            taken_branches += 1
            if taken_branches >= config.max_taken_branches_per_fetch + 1:
                stop = True
        return stop, taken_branches

    def _taken_branch_btb(self, op: DynamicOp, taken_branches: int) -> bool:
        """BTB lookup for a taken branch; a miss costs a short front-end redirect."""
        target = self.btb.lookup(op.pc)
        actual_target = op.target_pc if op.target_pc is not None else op.next_pc
        if target is None or target != actual_target:
            self.counters["btb_misses"] += 1
            self.btb.update(op.pc, actual_target)
            self.fetch_blocked_until = self.cycle + self.config.btb_miss_penalty
            return True
        return False

    # ----------------------------------------------------------------- rename --

    def _do_rename(self) -> None:
        queue = self.frontend_queue
        if not queue:
            return
        config = self.config
        cycle = self.cycle
        if queue[0].fetch_cycle + config.frontend_depth > cycle:
            return
        renamed = 0
        rename_width = config.rename_width
        frontend_depth = config.frontend_depth
        smb_active = config.smb.enabled and self.tracker.supports_memory_bypass
        smb_predict = self.smb_engine.predict
        rename_into = self.renamer.rename_into
        resolve_producer = self._resolve_producer
        dispatch_cache = self._static_dispatch_cache
        me_is_candidate = config.move_elimination.is_candidate
        rob = self.rob
        lsq = self.lsq
        preg_ready = self.preg_ready
        ready = self._ready
        consumers = self._consumers
        tracer = self.tracer
        # Occupancy is read once and counted down as the group dispatches:
        # until commit runs again only this stage and a release walk change
        # it, and a walk returns it re-read.
        retained = len(self._rob_retained)
        rob_free = rob.capacity - len(self._rob_window) - retained
        int_free = len(self._int_free_regs)
        fp_free = len(self._fp_free_regs)
        iq_free = self.iq.capacity - self.iq.occupancy
        lq_free = lsq.lq_capacity - len(self._lq)
        sq_free = lsq.sq_capacity - len(self._sq)
        low_watermark = config.free_list_low_watermark
        dispatched = 0
        while renamed < rename_width and queue:
            entry = queue[0]
            if entry.fetch_cycle + frontend_depth > cycle:
                break
            op = entry.op
            # The stall checks, in their fixed order: ROB, IQ, LSQ, then the
            # destination's free list.  Only lazy reclaim retains committed
            # entries, whose release walk frees ROB slots and registers: it
            # is forced by a full ROB or an empty destination free list, and
            # runs ahead of dispatch while a free list is below the
            # watermark or the ROB cannot take a whole group.
            if not rob_free and retained:
                rob_free, retained, int_free, fp_free = self._release_retained(force=True)
            writes_int = op.writes_register and op.dest_flat < NUM_INT_REGS
            if (not rob_free or not iq_free
                    or (op.is_load and not lq_free) or (op.is_store and not sq_free)):
                stalled = True
            elif op.writes_register and not (int_free if writes_int else fp_free):
                if retained:
                    rob_free, retained, int_free, fp_free = \
                        self._release_retained(force=True)
                stalled = not (int_free if writes_int else fp_free)
            else:
                stalled = False
            if stalled:
                self.counters["rename_stall_cycles"] += 1
                self._rename_stalled = True
                break
            if retained and (int_free < low_watermark or fp_free < low_watermark
                             or rob_free < rename_width):
                rob_free, retained, int_free, fp_free = self._release_retained(force=False)
            queue.popleft()

            smb_prediction = None
            if smb_active and op.is_load:
                smb_prediction = smb_predict(op, entry.history, entry.path)
            # One cache probe recovers every static-instruction property the
            # dispatch needs (see ``_static_dispatch_cache`` in ``_reset``).
            info = dispatch_cache.get(op.static_index)
            if info is None:
                latency = (config.fp_div_latency if op.opcode is Opcode.FDIV
                           else self._latency_of_class[op.op_class])
                info = (me_is_candidate(op), self._pool_of_class[op.op_class],
                        latency, op.op_class is OpClass.NOP)
                dispatch_cache[op.static_index] = info
            me_candidate, fu_pool, exec_latency, is_nop = info
            # Share-attempt distance tracking (Section 6.3).
            if me_candidate or smb_prediction is not None:
                if self._last_share_attempt_seq is not None:
                    self._share_attempt_gaps += entry.seq - self._last_share_attempt_seq
                    self._share_attempt_count += 1
                self._last_share_attempt_seq = entry.seq

            rename_into(entry, op, resolve_producer=resolve_producer,
                        smb_prediction=smb_prediction, me_candidate=me_candidate)
            entry.rename_cycle = cycle
            entry.smb_prediction = smb_prediction

            if entry.allocated:
                preg_ready[entry.dest_preg] = _NEVER
                if writes_int:
                    int_free -= 1
                else:
                    fp_free -= 1

            entry.needs_execution = needs_execution = not (entry.eliminated or is_nop)
            if needs_execution:
                # Scheduling constants, precomputed so the issue stage never
                # re-derives them on its wakeup scan.
                entry.fu_pool = fu_pool
                entry.exec_latency = exec_latency

            # Memory dependence prediction (Store Sets).
            if op.is_load:
                wait_seq = self.store_sets.lookup_load(op.pc)
                if wait_seq is not None and wait_seq < op.seq:
                    waiting_for = rob.lookup(wait_seq)
                    if waiting_for is not None and waiting_for.is_store \
                            and not waiting_for.committed:
                        entry.store_set_wait_seq = wait_seq
            elif op.is_store:
                self.store_sets.store_renamed(op.pc, op.seq)

            # Dispatch.
            rob.append(entry)
            rob_free -= 1
            if op.is_load or op.is_store:
                lsq.add(entry)
                if op.is_load:
                    lq_free -= 1
                else:
                    sq_free -= 1
            if needs_execution:
                dispatched += 1
                iq_free -= 1
                # Event-driven wakeup: register on every not-yet-ready
                # source; an operand-complete instruction goes straight to
                # the ready list (dispatch order is age order, so the
                # append preserves the oldest-first invariant).
                waits = 0
                for preg in entry.src_pregs:
                    if preg_ready[preg] > cycle:
                        waiters = consumers.get(preg)
                        if waiters is None:
                            consumers[preg] = [entry]
                        else:
                            waiters.append(entry)
                        waits += 1
                entry.wait_count = waits
                if not waits:
                    ready.append(entry)
            else:
                entry.issued = True
                entry.completed = True
                entry.complete_cycle = cycle
            if tracer is not None:
                tracer.on_rename(entry, cycle)
            renamed += 1
        if renamed:
            if dispatched:
                self.iq.note_dispatched(dispatched)
            self._progress = True

    def _resolve_producer(self, seq: int) -> ProducerInfo | None:
        """Locate a bypass producer by sequence number (ROB or retained entries)."""
        entry = self.rob.lookup(seq)
        if entry is None:
            return None
        if entry.committed and not self.config.smb.bypass_from_committed:
            return None
        if entry.dest_preg is None or not entry.op.writes_register:
            return None
        return ProducerInfo(
            seq=seq,
            preg=entry.dest_preg,
            value=entry.op.result,
            is_load=entry.is_load,
            is_committed=entry.committed,
        )

    # ------------------------------------------------------------------ issue --

    def _do_issue(self) -> None:
        """Oldest-first select over the event-driven ready list.

        This is the simulator's hottest loop.  Instead of scanning the
        whole issue queue every cycle, only instructions whose operands
        have all written back (the ``_ready`` list, fed by the wakeup lists
        in :meth:`_do_complete`) are examined.  Readiness is monotonic: a
        source register of an in-flight queue entry can never be reclaimed
        and re-allocated before the entry issues, because the instruction
        overwriting that architectural register is younger and in-order
        commit forces the consumer to commit (hence issue) first -- so a
        woken entry needs no operand re-verification, only its functional
        unit and memory-dependence checks.  A load whose memory-dependence
        check says wait leaves the list for the wakeup list of the store it
        waits on (see :meth:`_load_issue_latency`).  The issue queue itself
        only counts: this loop accounts for what it issued with
        :meth:`IssueQueue.note_issued`.
        """
        ready = self._ready
        if not ready:
            return
        if self._ready_dirty:
            ready.sort(key=_BY_SEQ)
            self._ready_dirty = False
        cycle = self.cycle
        issue_width = self.config.issue_width
        store_latency = self.config.store_latency
        wheel = self.execution_wheel
        load_issue_latency = self._load_issue_latency
        tracer = self.tracer
        issued = 0
        # ``remaining`` is materialised lazily: on cycles where every ready
        # instruction stays put, the pass allocates nothing.
        remaining: list[InflightOp] | None = None
        for position, entry in enumerate(ready):
            if issued < issue_width:
                pool = entry.fu_pool
                # Inlined FunctionalUnitPool.can_accept/accept for the
                # pipelined pools (the overwhelmingly common case): roll
                # the per-cycle issue counter, check it, bump it.
                pipelined = pool.pipelined
                if pipelined:
                    if pool._current_cycle != cycle:
                        pool._current_cycle = cycle
                        pool._issued_this_cycle = 0
                    accepts = pool._issued_this_cycle < pool.count
                else:
                    accepts = pool.can_accept(cycle)
                if accepts:
                    if entry.is_load:
                        latency = load_issue_latency(entry)
                        if latency is None:
                            # Parked on the store it waits for.
                            if remaining is None:
                                remaining = ready[:position]
                            continue
                    elif entry.is_store:
                        latency = store_latency
                    else:
                        latency = entry.exec_latency
                    if pipelined:
                        pool._issued_this_cycle += 1
                        pool.operations += 1
                    else:
                        pool.accept(cycle, latency)
                    entry.issued = True
                    entry.issue_cycle = cycle
                    complete_cycle = cycle + latency
                    entry.complete_cycle = complete_cycle
                    # Writeback for this cycle already ran, so a
                    # zero-latency op lands in the next cycle's bucket --
                    # exactly when the former heap (popped with
                    # `<= cycle`) would have delivered it.
                    bucket_key = complete_cycle if complete_cycle > cycle else cycle + 1
                    bucket = wheel.get(bucket_key)
                    if bucket is None:
                        wheel[bucket_key] = [entry]
                    else:
                        bucket.append(entry)
                    if tracer is not None:
                        tracer.on_issue(entry, cycle)
                    issued += 1
                    if remaining is None:
                        remaining = ready[:position]
                    continue
            if remaining is not None:
                remaining.append(entry)
        if remaining is not None:
            self._ready = remaining
        if issued:
            self.iq.note_issued(issued)
            self._progress = True

    def _load_issue_latency(self, entry: InflightOp) -> int | None:
        """Memory-dependence checks and latency for a load.

        ``None`` means the load waits for an older store to write back: it
        is parked on that store's wakeup list, and :meth:`_do_complete`
        returns it to the ready list when the store's bucket pops -- the
        first cycle in which the check could pass.  Until then it is not
        examined again.
        """
        config = self.config
        op = entry.op

        # Store Sets dependence: the load waits until the predicted store executed.
        if entry.store_set_wait_seq is not None and not entry.bypassed:
            store = self.rob.lookup(entry.store_set_wait_seq)
            if store is not None and store.is_store and not store.committed \
                    and not store.completed:
                self._park(entry, store)
                return None
            if not entry.false_dependency:
                store_op = self.trace.ops[entry.store_set_wait_seq]
                overlap = (store_op.mem_addr is not None and op.mem_addr is not None
                           and store_op.mem_addr < op.mem_addr + op.mem_size
                           and op.mem_addr < store_op.mem_addr + store_op.mem_size)
                if not overlap:
                    entry.false_dependency = True
                    self.counters["false_dependencies"] += 1

        decision = self.lsq.forwarding_for(entry)
        if decision.state is ForwardingState.PARTIAL_OVERLAP:
            store = decision.store
            if not (store.issued and store.completed):
                self._park(entry, store)
                return None
            return config.stlf_latency + config.partial_forward_penalty
        if decision.state is ForwardingState.FORWARD:
            entry.stlf_forwarded = True
            return config.stlf_latency
        # No conflict, or the covering store has not executed yet (the load
        # proceeds with possibly stale data -- violation detected later).
        return self.memory.access_data(op.mem_addr, False, op.pc, self.cycle)

    def _park(self, load: InflightOp, store: InflightOp) -> None:
        """Put a waiting load on the wakeup list of the store it waits for."""
        waiters = self._store_waiters.get(store.seq)
        if waiters is None:
            self._store_waiters[store.seq] = [load]
        else:
            waiters.append(load)

    # -------------------------------------------------------------- writeback --

    def _do_complete(self) -> None:
        cycle = self.cycle
        bucket = self.execution_wheel.pop(cycle, None)
        if bucket is None:
            return
        self._progress = True
        # Same-cycle completions are processed oldest first (the order the
        # former writeback heap produced); ops issued in different cycles
        # can land in one bucket out of sequence order.
        bucket.sort(key=_BY_SEQ)
        ready = self._ready
        consumers = self._consumers
        store_waiters = self._store_waiters
        tracer = self.tracer
        for entry in bucket:
            if entry.completed:
                continue
            entry.completed = True
            if tracer is not None:
                tracer.on_writeback(entry, cycle)
            if entry.allocated and entry.dest_preg is not None:
                self.preg_ready[entry.dest_preg] = entry.complete_cycle
                # Wake every instruction waiting on this register; those
                # whose last operand this was become issue candidates this
                # very cycle (writeback runs before issue), as the full
                # readiness scan used to observe.
                waiters = consumers.pop(entry.dest_preg, None)
                if waiters:
                    for waiter in waiters:
                        waiter.wait_count -= 1
                        if not waiter.wait_count:
                            ready.append(waiter)
                            self._ready_dirty = True
            if entry.is_store:
                # Loads parked on this store retry this very cycle.
                if store_waiters:
                    parked = store_waiters.pop(entry.seq, None)
                    if parked:
                        ready.extend(parked)
                        self._ready_dirty = True
                self._detect_violations(entry)
            if entry.is_load and entry.bypassed:
                self.smb_engine.note_validation(
                    entry.op, entry.bypass_value_matches,
                    entry.history, entry.path, entry.smb_prediction)
            if entry is self.pending_redirect:
                self._resolve_misprediction(entry)

    def _detect_violations(self, store: InflightOp) -> None:
        """A store executed: flag younger already-executed overlapping loads."""
        for load in self.lsq.violating_loads(store):
            if load.bypassed and load.bypass_value_matches:
                # The dependence was satisfied through the register file:
                # the trap is avoided (Section 3.1's third benefit of SMB).
                self.counters["traps_avoided_by_smb"] += 1
                continue
            if not load.violation:
                load.violation = True
                self.store_sets.train_violation(load.op.pc, store.op.pc)

    def _resolve_misprediction(self, branch: InflightOp) -> None:
        """A mispredicted branch resolved: restart fetch, charging the recovery cost."""
        wrong_path_estimate = min(
            self.rob.free_slots(),
            max(self.cycle - branch.rename_cycle, 1) * self.config.rename_width,
        ) if branch.rename_cycle >= 0 else self.config.rename_width
        extra = self.tracker.recovery_cycles(wrong_path_estimate, self.config.commit_width)
        extra = max(extra - 1, 0)  # a single-cycle repair is part of the base redirect
        self.counters["recovery_extra_cycles"] += extra
        self.fetch_blocked_until = max(self.fetch_blocked_until, self.cycle + 1 + extra)
        self.pending_redirect = None

    # ----------------------------------------------------------------- commit --

    def _do_commit(self) -> None:
        window = self._rob_window
        if not window or not window[0].completed:
            return
        # The per-entry commit work is inlined into this loop (rather than
        # split into a helper) with the shared structures bound once: at
        # IPC > 1 this runs for nearly every micro-op of the trace.  The
        # loop reads the ROB's in-flight window in place and retires what
        # it committed from the ROB and the LSQ in one call each afterwards
        # (nothing in between reads either).
        config = self.config
        counters = self.counters
        tracker = self.tracker
        commit_raw = self.commit_map.raw()
        smb_train = self._smb_train_commit
        commit_csns = self._commit_csns
        lazy_reclaim = config.lazy_reclaim
        num_int_pregs = config.num_int_pregs
        int_free, fp_free = self.int_free, self.fp_free
        tracer = self.tracer
        cycle = self.cycle
        milestones = self._milestone_commits
        committed_now = loads = stores = 0
        commit_width = config.commit_width
        trap = None
        for entry in window:
            if committed_now == commit_width or not entry.completed:
                break
            if entry.violation or (entry.bypassed and not entry.bypass_value_matches):
                trap = entry
                break
            op = entry.op
            csn = self._csn_base + self.committed
            if self._first_commit_cycle < 0:
                self._first_commit_cycle = cycle
            entry.committed = True
            entry.commit_cycle = cycle
            if tracer is not None:
                tracer.on_commit(entry, cycle)

            dest_preg = entry.dest_preg
            if entry.share_recorded and dest_preg is not None:
                tracker.on_share_commit(dest_preg)

            if op.dest is not None and dest_preg is not None:
                arch_flat = op.dest_flat
                previous = commit_raw[arch_flat]
                commit_raw[arch_flat] = dest_preg
                if entry.allocated:
                    (int_free if dest_preg < num_int_pregs
                     else fp_free).on_commit_allocate(dest_preg)
                if previous >= 0 and previous != dest_preg and not lazy_reclaim:
                    # Under lazy reclaim the ROB retains this entry and the
                    # release walk reclaims ``previous`` later.
                    self._reclaim_register(previous, arch_flat, entry.seq)

            if op.is_load or op.is_store:
                if op.is_store:
                    stores += 1
                    # Drain the store to the cache (latency absorbed by the
                    # store buffer).
                    self.memory.access_data(op.mem_addr, True, op.pc, cycle)
                    self.store_sets.store_completed(op.pc, op.seq)
                else:
                    loads += 1
                    counters["committed_loads"] += 1
                    if entry.bypassed:
                        counters["committed_bypassed_loads"] += 1
                # Commit-side SMB training (CSN table, DDT, distance
                # predictor); ``smb_train`` is None when SMB is disabled.
                if smb_train is not None:
                    smb_train(op, csn, entry.history, entry.path, entry.smb_prediction)
            elif commit_csns is not None and op.writes_register:
                commit_csns[op.dest_flat] = csn
            if entry.eliminated:
                counters["committed_eliminated_moves"] += 1
            self.committed += 1
            if milestones is not None and self.committed in milestones:
                self.milestone_cycles[self.committed] = cycle
            committed_now += 1
        if committed_now:
            self.rob.retire(committed_now)
            if loads or stores:
                self.lsq.retire(loads, stores)
            self._progress = True
        if trap is not None:
            self._flush_at(trap)

    def _reclaim_register(self, preg: int, arch_flat: int, seq: int) -> None:
        """Ask the sharing tracker whether ``preg`` can return to the free list."""
        if self.tracker.is_tracked(preg):
            if self._last_reclaim_check_seq is not None:
                self._reclaim_check_gaps += seq - self._last_reclaim_check_seq
                self._reclaim_check_count += 1
            self._last_reclaim_check_seq = seq
        decision = self.tracker.reclaim(preg, arch_flat)
        if decision is ReclaimDecision.FREE:
            (self.int_free if preg < self.config.num_int_pregs else self.fp_free).release(preg)

    def _release_retained(self, force: bool) -> tuple[int, int, int, int]:
        """Lazy-reclaim release walk (Section 3.3).

        Triggered when the free list runs low or the ROB fills up
        (``force``: a full ROB or an empty free list), the walk releases
        retained committed entries and performs the register reclaims
        their commits deferred.  Returns the occupancy the rename stage
        counts down: free ROB slots, retained entries, and free int and FP
        registers.
        """
        config = self.config
        capacity = self.rob.capacity
        window, retained = self._rob_window, self._rob_retained
        int_regs, fp_regs = self._int_free_regs, self._fp_free_regs
        low_watermark = config.free_list_low_watermark
        released_any = False
        while retained:
            rob_free = capacity - len(window) - len(retained)
            int_free, fp_free = len(int_regs), len(fp_regs)
            if not ((force and (not rob_free or not int_free or not fp_free))
                    or int_free < low_watermark or fp_free < low_watermark
                    or rob_free < config.rename_width):
                break
            entry = self.rob.pop_retained()
            released_any = True
            if entry.op.dest is not None and entry.old_preg is not None \
                    and entry.old_preg >= 0 and entry.old_preg != entry.dest_preg:
                self._reclaim_register(entry.old_preg, entry.op.dest_flat, entry.seq)
        if released_any:
            self.counters["release_walks"] += 1
        return (capacity - len(window) - len(retained), len(retained),
                len(int_regs), len(fp_regs))

    # ------------------------------------------------------------------ flush --

    def _flush_at(self, entry: InflightOp) -> None:
        """Squash everything in flight and re-fetch starting at ``entry`` (trap at commit)."""
        self._progress = True
        if entry.violation:
            self.counters["memory_order_violations"] += 1
        else:
            self.counters["bypass_validation_flushes"] += 1

        squashed = self.rob.squash_all_inflight()
        tracer = self.tracer
        if tracer is not None:
            reason = ("memory_order_violation" if entry.violation
                      else "bypass_validation")
            # Both the in-flight window and the not-yet-renamed frontend
            # queue are thrown away (recorded before the clears below).
            tracer.on_squash(squashed, self.cycle, reason)
            tracer.on_squash(self.frontend_queue, self.cycle, reason)
        self.iq.clear()
        self._ready.clear()
        self._ready_dirty = False
        self._consumers.clear()
        self._store_waiters.clear()
        self.lsq.squash_all()
        self.frontend_queue.clear()
        self.execution_wheel.clear()
        self.pending_redirect = None

        # Restore the renamer to the committed state (Section 4.1).
        self.rename_map.copy_from(self.commit_map)
        self.int_free.restore_to_committed()
        self.fp_free.restore_to_committed()
        num_int_pregs = self.config.num_int_pregs
        for preg in self.tracker.flush_to_committed():
            (self.int_free if preg < num_int_pregs else self.fp_free).release(preg)

        # Re-fetch from the trapping instruction itself.
        self.fetch_index = entry.seq
        self._last_fetch_line = -1
        extra = self.tracker.recovery_cycles(len(squashed), self.config.commit_width)
        extra = max(extra - 1, 0)
        self.counters["recovery_extra_cycles"] += extra
        self.fetch_blocked_until = self.cycle + self.config.trap_penalty + extra

    # --------------------------------------------------------- snapshot/restore --

    def snapshot(self, warm: WarmState | None = None) -> CoreSnapshot:
        """Capture the warm micro-architectural state after a completed run.

        Only valid with the pipeline drained (i.e. right after :meth:`run`
        returned).  Deferred lazy reclaims are completed first so that no
        register liveness depends on retained ROB entries, which are not
        part of the snapshot; see :mod:`repro.pipeline.snapshot` for the
        full list of invariants.

        With ``warm`` -- a sampled plan's functionally warmed image of the
        next stretch's start -- the snapshot is the state that stretch
        resumes from: the BTB, RAS, history and path registers and the
        warmed data side of the memory hierarchy are ``warm``'s, and only
        the scheme-local rest is captured from this core.
        """
        if self.rob.head() is not None or self.frontend_queue or len(self.iq) \
                or self.execution_wheel or self.pending_redirect is not None:
            raise RuntimeError("snapshot requires a drained pipeline")
        # Complete every deferred reclaim (lazy-reclaim release walk).
        while self.rob.retained_count() > 0:
            entry = self.rob.pop_retained()
            if entry is None:
                break
            if entry.op.dest is not None and entry.old_preg is not None \
                    and entry.old_preg >= 0 and entry.old_preg != entry.dest_preg:
                self._reclaim_register(entry.old_preg, entry.op.dest_flat, entry.seq)
        config = self.config
        if warm is None:
            btb, ras = self.btb.to_snapshot(), self.ras.to_snapshot()
            history, path = self.history.value, self.path.value
            memory = self.memory.to_snapshot(self.cycle)
        else:
            btb, ras, history, path = warm.btb, warm.ras, warm.history, warm.path
            memory = self.memory.to_snapshot(self.cycle, warm.memory)
        return CoreSnapshot(
            variant=config.variant_name(),
            num_int_pregs=config.num_int_pregs,
            num_fp_pregs=config.num_fp_pregs,
            next_csn=self._csn_base + self.committed,
            branch_predictor=self.branch_predictor.to_snapshot(),
            btb=btb,
            ras=ras,
            history=history,
            path=path,
            rename_map=self.commit_map.to_snapshot(),
            int_free=self.int_free.to_snapshot(),
            fp_free=self.fp_free.to_snapshot(),
            tracker=self.tracker.to_snapshot(),
            store_sets=self.store_sets.to_snapshot(),
            memory=memory,
            smb=self.smb_engine.to_snapshot(),
        )

    def _restore_snapshot(self, snap: CoreSnapshot) -> None:
        """Overwrite the freshly-reset core state with a snapshot (cycle rebased to 0)."""
        if not snap.compatible_with(self.config):
            raise ValueError(
                f"snapshot of machine {snap.variant!r} cannot be restored into "
                f"{self.config.variant_name()!r}")
        self.branch_predictor.restore_snapshot(snap.branch_predictor)
        self.btb.restore_snapshot(snap.btb)
        self.ras.restore_snapshot(snap.ras)
        self.history.restore(HistoryCheckpoint(snap.history, self.history.max_bits))
        self.path.restore(HistoryCheckpoint(snap.path, self.path.max_bits))
        # With the pipeline drained the speculative and commit maps agree,
        # so one image restores both.
        self.rename_map.restore_snapshot(snap.rename_map)
        self.commit_map.restore_snapshot(snap.rename_map)
        self.int_free.restore_snapshot(snap.int_free)
        self.fp_free.restore_snapshot(snap.fp_free)
        self.tracker.restore_snapshot(snap.tracker)
        self.store_sets.restore_snapshot(snap.store_sets)
        self.memory.restore_snapshot(snap.memory, now=0)
        self.smb_engine.restore_snapshot(snap.smb)
        self._csn_base = snap.next_csn

    # ------------------------------------------------------------------ utils --

    def metrics(self) -> MetricsRegistry:
        """This run's statistics as a unified, merge-aware registry.

        Same keys and values as ``SimulationResult.stats`` (which is the
        flattened view of this registry), but with every metric's kind and
        merge policy declared by :func:`repro.telemetry.metrics.classify_stat`
        -- the sampling aggregator folds per-window copies of this with
        :meth:`MetricsRegistry.merge`.
        """
        registry = MetricsRegistry()
        put = registry.put
        for key, value in self.counters.items():
            put(key, value)
        for key, value in self.renamer.move_stats.as_dict().items():
            put(key, value)
        for key, value in self.smb_engine.stats_dict().items():
            put(key, value)
        for key, value in self.tracker.stats.as_dict().items():
            put(f"tracker_{key}", value)
        put("tracker_storage_bits", self.tracker.storage_bits())
        put("tracker_checkpoint_bits", self.tracker.checkpoint_bits())
        for key, value in self.memory.stats().items():
            put(f"mem_{key}", value)
        put("first_commit_cycle", max(self._first_commit_cycle, 0))
        # Event-driven loop effectiveness: how many cycles were jumped over
        # and what fraction of simulated time actually held events.  These
        # describe the *simulator's execution strategy*, not the simulated
        # machine, so the skip-on/off differential tests exclude them.
        put("skipped_cycles", self._skipped_cycles)
        if self.cycle > 0:
            put("events_per_cycle",
                (self.cycle - self._skipped_cycles) / self.cycle)
        put("rob_peak_occupancy", self.rob.peak_occupancy)
        put("iq_peak_occupancy", self.iq.peak_occupancy)
        put("lq_peak_occupancy", self.lsq.peak_lq)
        put("sq_peak_occupancy", self.lsq.peak_sq)
        put("renamed_instructions", self.renamer.move_stats.renamed_instructions)
        if self._share_attempt_count:
            put("isrb_alloc_mean_distance",
                self._share_attempt_gaps / self._share_attempt_count)
        if self._reclaim_check_count:
            put("isrb_reclaim_mean_distance",
                self._reclaim_check_gaps / self._reclaim_check_count)
        if self.counters["committed_loads"]:
            put("bypassed_load_fraction",
                self.counters["committed_bypassed_loads"] / self.counters["committed_loads"])
        return registry

    def _build_result(self) -> SimulationResult:
        stats = self.metrics().as_stats()
        return SimulationResult(
            workload=self.trace.name,
            config_label=self.config.label(),
            cycles=self.cycle,
            instructions=self.committed,
            stats=stats,
        )


# ---------------------------------------------------------------------------
# Convenience entry points
# ---------------------------------------------------------------------------


def simulate_trace(trace: Trace, config: CoreConfig | None = None,
                   max_cycles: int | None = None) -> SimulationResult:
    """Run ``trace`` on a core with the given configuration."""
    return Core(config).run(trace, max_cycles=max_cycles)


def simulate(workload: str, config: CoreConfig | None = None, max_ops: int = 20_000,
             seed: int = 1, max_cycles: int | None = None) -> SimulationResult:
    """Generate workload ``workload`` and simulate it in one call."""
    from repro.workloads import generate_trace

    trace = generate_trace(workload, max_ops=max_ops, seed=seed)
    return simulate_trace(trace, config, max_cycles=max_cycles)
