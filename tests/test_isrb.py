"""ISRB unit tests, including the Section 4.3.1 checkpoint/restore worked example."""

import pytest

from repro.core.isrb import InflightSharedRegisterBuffer
from repro.core.tracker import ReclaimDecision, TrackerConfig


def make_isrb(entries=32, counter_bits=3, checkpoints=8):
    return InflightSharedRegisterBuffer(TrackerConfig(
        scheme="isrb", entries=entries, counter_bits=counter_bits,
        checkpoints=checkpoints, num_phys_regs=512))


def test_section_4_3_1_worked_example():
    """The paper's Section 4.3.1 recovery example.

    A branch checkpoint is taken; *after* it, a speculative instruction
    shares physical register P (``referenced`` becomes 1).  The instruction
    overwriting P's mapping then commits: P cannot be freed because the
    speculative sharer still references it, so ``committed`` advances to 1
    and the register is kept alive.  When the branch turns out mispredicted
    the checkpoint is restored: ``referenced`` falls back to its
    checkpointed value 0, leaving ``committed`` (always architecturally
    correct) *greater* than ``referenced`` -- the tell-tale that the last
    committed overwrite would have freed P had the squashed sharer never
    existed.  The ISRB therefore releases P immediately during the
    single-cycle recovery.
    """
    isrb = make_isrb()
    P = 7

    checkpoint = isrb.checkpoint()

    # Wrong-path move elimination shares P.
    assert isrb.try_share(P, dest_arch=3) is True
    assert isrb.entry(P).referenced == 1
    assert isrb.entry(P).committed == 0

    # The overwrite of P's mapping commits while the sharer is in flight:
    # the register must be kept on behalf of the (speculative) sharer.
    assert isrb.reclaim(P, arch_reg=3) is ReclaimDecision.KEEP
    assert isrb.entry(P).committed == 1

    # Branch misprediction: restore the checkpoint.  committed(1) >
    # restored referenced(0), so P is freed as part of recovery.
    freed = isrb.restore(checkpoint)
    assert freed == [P]
    assert not isrb.is_tracked(P)


def test_pre_checkpoint_sharer_survives_restore():
    """Sharers older than the checkpoint must not be squashed by recovery."""
    isrb = make_isrb()
    P = 11
    assert isrb.try_share(P, dest_arch=2)          # pre-checkpoint sharer
    checkpoint = isrb.checkpoint()
    assert isrb.try_share(P, dest_arch=4)          # wrong-path sharer
    assert isrb.entry(P).referenced == 2

    freed = isrb.restore(checkpoint)
    assert freed == []
    assert isrb.entry(P).referenced == 1

    # The surviving sharer commits; two committed overwrites then free P.
    isrb.on_share_commit(P)
    assert isrb.reclaim(P, arch_reg=2) is ReclaimDecision.KEEP
    assert isrb.reclaim(P, arch_reg=4) is ReclaimDecision.FREE
    assert not isrb.is_tracked(P)


def test_freed_entry_is_gang_reset_in_live_checkpoints():
    """Restoring must never resurrect a register that was freed in between."""
    isrb = make_isrb()
    P = 5
    assert isrb.try_share(P, dest_arch=1)
    checkpoint = isrb.checkpoint()
    # The sharer commits and the overwrite frees the register normally.
    isrb.on_share_commit(P)
    assert isrb.reclaim(P, arch_reg=1) is ReclaimDecision.KEEP
    assert isrb.reclaim(P, arch_reg=9) is ReclaimDecision.FREE
    # Restoring the stale checkpoint must not bring P back.
    isrb.restore(checkpoint)
    assert not isrb.is_tracked(P)


def test_capacity_and_counter_saturation():
    isrb = make_isrb(entries=2, counter_bits=1)
    assert isrb.try_share(1, dest_arch=0)
    assert isrb.try_share(2, dest_arch=1)
    # Full: a third register cannot be tracked.
    assert isrb.try_share(3, dest_arch=2) is False
    assert isrb.stats.shares_rejected_full == 1
    # 1-bit counter saturates at 1: a second sharer of P1 is refused.
    assert isrb.try_share(1, dest_arch=4) is False
    assert isrb.stats.shares_rejected_saturated == 1


def test_flush_to_committed_frees_speculatively_held_registers():
    isrb = make_isrb()
    assert isrb.try_share(8, dest_arch=1)             # speculative only
    assert isrb.try_share(9, dest_arch=2)
    assert isrb.reclaim(9, arch_reg=2) is ReclaimDecision.KEEP
    freed = isrb.flush_to_committed()
    # P9's committed overwrite was deferred purely for the squashed sharer.
    assert freed == [9]
    assert not isrb.is_tracked(8)
    assert not isrb.is_tracked(9)


def test_storage_bits_matches_section_6_3():
    """32 entries x (9-bit tag + two 3-bit counters) = 480 bits."""
    isrb = make_isrb(entries=32, counter_bits=3)
    assert isrb.storage_bits() == 480
    assert isrb.checkpoint_bits() == 32 * 3


def test_restore_unknown_checkpoint_raises():
    isrb = make_isrb()
    with pytest.raises(KeyError):
        isrb.restore(123)
