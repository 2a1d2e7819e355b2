"""Property/invariant tests driven by seeded random program generators.

Hand-written workloads exercise the behaviours the paper measures; the
random programs here exercise the *corners* -- arbitrary interleavings of
eliminable moves, aliasing loads/stores, data-dependent branches and calls
-- while a checked core asserts the structural invariants every cycle:

* sharing-tracker reference counts never go negative, never exceed the
  configured counter width, and (matrix/ISRB family) collapse to the
  committed image after every squash;
* the free lists never double-allocate and return to balance at drain
  (every physical register is free, architecturally mapped, or explicitly
  tracked as reclaim-deferred -- no leaks);
* ROB / issue-queue / LSQ occupancy never exceeds capacity.

Everything is seeded ``random.Random`` -- a failure reproduces exactly.
"""

from __future__ import annotations

import pytest

from repro.core.isrb import InflightSharedRegisterBuffer
from repro.isa.registers import NUM_INT_REGS
from repro.pipeline.config import CoreConfig
from repro.pipeline.core import Core

# The random-program generator was promoted from this file into a
# registered workload family (``fuzz_*`` / ``fuzz:<profile>[:<seed>]``); the
# property layer drives the same generator everything else now runs, so the
# invariants below are checked against exactly the programs the sweep
# harness, paper pipeline and differential layer see.
from repro.workloads.fuzz import random_image

MAX_OPS = 1_500


# ---------------------------------------------------------------------------
# The checked core
# ---------------------------------------------------------------------------


class InvariantViolation(AssertionError):
    pass


class CheckedCore(Core):
    """A :class:`Core` that asserts structural invariants while running."""

    def run(self, trace, max_cycles=None):
        result = super().run(trace, max_cycles=max_cycles)
        self._check_drain_balance()
        return result

    # -- per-cycle hooks ----------------------------------------------------------

    def _do_commit(self):
        super()._do_commit()
        self._check_occupancy()
        self._check_tracker_counts()

    def _flush_at(self, entry):
        super()._flush_at(entry)
        self._check_tracker_committed_image()

    # -- invariants ---------------------------------------------------------------

    def _check_occupancy(self):
        config = self.config
        if self.rob.occupancy() > config.rob_entries:
            raise InvariantViolation("ROB occupancy exceeds capacity")
        if len(self.iq) > config.iq_entries:
            raise InvariantViolation("issue queue occupancy exceeds capacity")
        if len(self.lsq.loads()) > config.lq_entries:
            raise InvariantViolation("load queue occupancy exceeds capacity")
        if len(self.lsq.stores()) > config.sq_entries:
            raise InvariantViolation("store queue occupancy exceeds capacity")

    def _isrb_entries(self):
        tracker = self.tracker
        if isinstance(tracker, InflightSharedRegisterBuffer):
            return tracker._entries
        return None

    def _check_tracker_counts(self):
        entries = self._isrb_entries()
        if entries is None:
            return
        limit = self.tracker._counter_limit()
        for preg, entry in entries.items():
            if entry.referenced < 0 or entry.committed < 0 \
                    or entry.referenced_committed < 0:
                raise InvariantViolation(
                    f"negative reference count for preg {preg}: {entry}")
            if entry.referenced < entry.referenced_committed:
                raise InvariantViolation(
                    f"speculative count below committed image for preg {preg}")
            if limit is not None and entry.referenced > limit:
                raise InvariantViolation(
                    f"counter width exceeded for preg {preg}: {entry.referenced}")

    def _check_tracker_committed_image(self):
        """Right after a squash the tracker must equal its committed image."""
        entries = self._isrb_entries()
        if entries is None:
            return
        for preg, entry in entries.items():
            if entry.referenced != entry.referenced_committed:
                raise InvariantViolation(
                    f"post-squash row for preg {preg} not collapsed to the "
                    f"committed image: {entry}")
            if entry.committed > entry.referenced:
                raise InvariantViolation(
                    f"post-squash row for preg {preg} should have been freed")

    def _check_drain_balance(self):
        """At drain: no leaked and no double-free physical registers."""
        mapped = set(self.commit_map.raw())
        spec_mapped = set(self.rename_map.raw())
        if mapped != spec_mapped:
            raise InvariantViolation(
                "speculative and committed rename maps disagree at drain")
        for free_list in (self.int_free, self.fp_free):
            free = set(free_list.free_registers())
            committed_free = set(free_list.to_snapshot()["committed_free"])
            if free != committed_free:
                raise InvariantViolation(
                    f"{free_list.reg_class.value} free list out of balance at "
                    f"drain: {len(free)} speculative vs {len(committed_free)} "
                    "committed")
            if free & mapped:
                raise InvariantViolation(
                    f"{free_list.reg_class.value} free list contains "
                    f"architecturally mapped registers: {sorted(free & mapped)}")
            first = free_list.first_preg
            for preg in range(first, first + free_list.count):
                if preg in free or preg in mapped:
                    continue
                if self.tracker.is_tracked(preg):
                    continue  # reclaim legitimately deferred by the tracker
                if any(entry.old_preg == preg
                       for entry in self.rob.retained()):
                    continue  # lazy reclaim: the release walk that would
                    # reclaim the overwritten mapping has not reached it yet
                raise InvariantViolation(
                    f"physical register {preg} leaked: neither free, mapped, "
                    "tracked, nor retained")


# ---------------------------------------------------------------------------
# The properties
# ---------------------------------------------------------------------------

SEEDS = (11, 23, 47, 101)

#: Tracker configurations chosen to stress different corners: a tiny ISRB
#: (capacity and counter saturation), the unlimited reference, walk-recovery
#: counters, and the matrix family whose rows must collapse after squashes.
SCHEME_CONFIGS = {
    "isrb_tiny": CoreConfig().with_tracker("isrb", entries=4, counter_bits=2)
                             .with_move_elimination().with_smb(),
    "unlimited": CoreConfig().with_tracker("unlimited", entries=None,
                                           counter_bits=None)
                             .with_move_elimination().with_smb(),
    "refcount": CoreConfig().with_tracker("refcount", entries=None,
                                          counter_bits=3)
                            .with_move_elimination().with_smb(),
    "matrix": CoreConfig().with_tracker("matrix", entries=None,
                                        counter_bits=None)
                          .with_move_elimination().with_smb(),
    "isrb_lazy": CoreConfig().with_tracker("isrb", entries=32, counter_bits=3)
                             .with_move_elimination()
                             .with_smb(bypass_from_committed=True),
}


def _run_checked(seed: int, config: CoreConfig):
    image = random_image(seed)
    trace = image.execute(max_ops=MAX_OPS)
    return CheckedCore(config).run(trace)


@pytest.mark.parametrize("scheme", sorted(SCHEME_CONFIGS))
@pytest.mark.parametrize("seed", SEEDS)
def test_random_programs_hold_invariants(seed, scheme):
    """Random programs commit fully under every scheme with invariants intact."""
    result = _run_checked(seed, SCHEME_CONFIGS[scheme])
    assert result.instructions == MAX_OPS


def test_random_programs_actually_squash():
    """The generator produces traps, so the squash invariants really ran."""
    flushes = 0.0
    for seed in SEEDS:
        result = _run_checked(seed, SCHEME_CONFIGS["isrb_tiny"])
        flushes += result.stat("memory_order_violations")
        flushes += result.stat("bypass_validation_flushes")
    assert flushes > 0, (
        "no commit-stage squash in any seed: the post-squash tracker "
        "invariants were never exercised; retune the generator")


def test_random_programs_exercise_sharing():
    """Move elimination and tracker rejections both occur (tiny ISRB)."""
    eliminated = rejected = 0.0
    for seed in SEEDS:
        result = _run_checked(seed, SCHEME_CONFIGS["isrb_tiny"])
        eliminated += result.stat("moves_eliminated",
                                  result.stat("committed_eliminated_moves"))
        rejected += result.stat("tracker_shares_rejected_full")
        rejected += result.stat("tracker_shares_rejected_saturated")
    assert eliminated > 0, "generator produced no eliminated moves"
    assert rejected > 0, "tiny ISRB was never capacity/width limited"


def test_zero_latency_config_still_drains():
    """The writeback wheel must deliver zero-latency completions.

    The former writeback heap popped everything with ``complete_cycle <=
    cycle``, so a (legal) zero-latency op completed on the *next* cycle's
    writeback; the bucketed wheel must reproduce that instead of parking
    the op in a bucket that is never drained (a pipeline deadlock).
    """
    from repro.pipeline.core import simulate

    config = CoreConfig().replace(branch_latency=0, store_latency=0)
    result = simulate("move_chain", config, max_ops=500, seed=1)
    assert result.instructions == 500


def _split_trace(trace, split):
    """Split a trace into two stand-alone traces (window-local sequence numbers)."""
    import dataclasses

    from repro.isa.executor import Trace

    first = Trace(name=f"{trace.name}.a", ops=list(trace.ops[:split]),
                  program=trace.program)
    second = Trace(
        name=f"{trace.name}.b",
        ops=[dataclasses.replace(op, seq=index)
             for index, op in enumerate(trace.ops[split:])],
        program=trace.program,
    )
    return first, second


@pytest.mark.parametrize("scheme", sorted(SCHEME_CONFIGS))
def test_snapshot_restore_resume_matches_uninterrupted(scheme):
    """Snapshot -> restore -> resume is indistinguishable from continuing.

    For every tracker scheme: run the first half of a random trace, take a
    micro-architectural snapshot, then resume the second half twice -- once
    in the *same* core object (which carries whatever state a buggy restore
    would fail to overwrite) and once in a factory-fresh core.  Both must
    commit identically (same cycles, same statistics) and end in states
    with identical snapshot digests; any core state missed by the snapshot
    API diverges the two runs and fails the digest comparison.  The
    architectural half of the property (functional resume == uninterrupted
    execution, pinned by the golden SHA-256 digests) lives in
    ``test_differential.py``.
    """
    from repro.pipeline.core import Core

    config = SCHEME_CONFIGS[scheme]
    image = random_image(23)
    trace = image.execute(max_ops=MAX_OPS)
    first, second = _split_trace(trace, MAX_OPS // 2)

    veteran = Core(config)
    first_result = veteran.run(first)
    assert first_result.instructions == len(first)
    snapshot = veteran.snapshot()

    fresh = Core(config)
    resumed_fresh = fresh.run(second, resume=snapshot)
    resumed_veteran = veteran.run(second, resume=snapshot)

    assert resumed_fresh.cycles == resumed_veteran.cycles
    assert resumed_fresh.instructions == len(second)
    assert resumed_veteran.instructions == len(second)
    assert resumed_fresh.stats == resumed_veteran.stats
    assert fresh.snapshot().digest() == veteran.snapshot().digest()


@pytest.mark.parametrize("scheme", sorted(SCHEME_CONFIGS))
def test_snapshot_commits_full_trace_across_many_splits(scheme):
    """Chained windows commit every micro-op under every tracker scheme.

    This is the shape the sampled driver uses (run window, snapshot, run
    the next window from the snapshot); it must never leak or double-free
    physical registers -- with the lazy-reclaim configuration in the mix,
    the pre-snapshot release walk is what keeps the free lists balanced.
    """
    import dataclasses

    from repro.isa.executor import Trace
    from repro.pipeline.core import Core

    config = SCHEME_CONFIGS[scheme]
    trace = random_image(47).execute(max_ops=MAX_OPS)
    core = Core(config)
    snapshot = None
    committed = 0
    for start in range(0, MAX_OPS, 300):
        chunk = Trace(
            name=f"chunk@{start}",
            ops=[dataclasses.replace(op, seq=index)
                 for index, op in enumerate(trace.ops[start:start + 300])],
            program=trace.program,
        )
        result = core.run(chunk, resume=snapshot)
        snapshot = core.snapshot()
        committed += result.instructions
    assert committed == MAX_OPS


def test_free_list_rejects_double_free():
    """The double-allocation guard itself works (not just never fires)."""
    from repro.isa.registers import RegClass
    from repro.rename.maps import FreeList

    free_list = FreeList(RegClass.INT, 0, 48, NUM_INT_REGS)
    preg = free_list.allocate()
    free_list.on_commit_allocate(preg)
    free_list.release(preg)
    with pytest.raises(ValueError, match="freed twice"):
        free_list.release(preg)
