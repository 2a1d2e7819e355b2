"""The Register Duplicate Array (RDA) of Sundar et al. (Apple patent).

Like the ISRB, the RDA is a small fully-associative structure whose entries
are allocated on demand when a register acquires more than one sharer, and
it is not limited to move elimination.  The difference is in how it is made
recoverable: each entry holds a single reference counter, and to keep the
checkpointed copies consistent *every* checkpoint must be updated whenever a
tracked mapping retires ("committing a mapping relating to a tracked
physical register requires decrementing up to n counters, with n the number
of checkpoints" -- Section 4.2).

Functionally the RDA resolves sharing exactly like a capacity-limited ISRB;
this class therefore reuses that machinery and overrides only the storage
model: per entry, a register tag plus a *single* counter; per checkpoint,
one counter per entry (same as the ISRB).  The checkpoint updates each
retirement costs -- the update-port pressure the paper objects to -- change
no simulated timing, so they are not modelled.
"""

from __future__ import annotations

from repro.core.isrb import InflightSharedRegisterBuffer
from repro.core.tracker import TrackerConfig


class RegisterDuplicateArray(InflightSharedRegisterBuffer):
    """A capacity-limited sharing tracker with the RDA's single-counter storage."""

    name = "rda"
    supports_memory_bypass = True
    supports_move_elimination = True
    checkpoint_recovery = True

    def __init__(self, config: TrackerConfig | None = None) -> None:
        super().__init__(config or TrackerConfig(scheme="rda", entries=32, counter_bits=3))

    def storage_bits(self) -> int:
        """Per entry: a physical register tag plus a single reference counter."""
        entries = self.capacity if self.capacity is not None else self.config.num_phys_regs
        counter_bits = self.config.counter_bits if self.config.counter_bits is not None else 32
        tag_bits = max((self.config.num_phys_regs - 1).bit_length(), 1)
        return entries * (tag_bits + counter_bits)
