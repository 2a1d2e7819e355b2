"""Branch history and path history registers.

Both the TAGE branch predictor and the TAGE-like Instruction Distance
predictor of the paper index their tagged components with a mix of the
program counter, the *global branch history* (a shift register of recent
branch outcomes) and the *path history* (a shift register built from recent
branch target addresses).  The front-end must be able to checkpoint and
restore those registers cheaply when a branch is mispredicted, so both
classes expose an explicit checkpoint token.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class HistoryCheckpoint:
    """Opaque snapshot of a history register (value + length)."""

    value: int
    length: int


class ShiftHistory:
    """A bounded shift register of single-bit outcomes (global branch history).

    The most recent outcome occupies bit 0.  Only the low ``max_bits`` bits
    are retained, which is all geometric-history predictors ever consume.
    """

    __slots__ = ("_max_bits", "_mask", "_value")

    def __init__(self, max_bits: int = 256) -> None:
        if max_bits < 1:
            raise ValueError(f"history length must be >= 1, got {max_bits}")
        self._max_bits = max_bits
        self._mask = (1 << max_bits) - 1
        self._value = 0

    @property
    def max_bits(self) -> int:
        """Number of outcome bits retained."""
        return self._max_bits

    @property
    def value(self) -> int:
        """The packed history bits (bit 0 is the most recent outcome)."""
        return self._value

    def push(self, taken: bool) -> None:
        """Shift in a new branch outcome."""
        self._value = ((self._value << 1) | int(bool(taken))) & self._mask

    def checkpoint(self) -> HistoryCheckpoint:
        """Snapshot the register for later restoration."""
        return HistoryCheckpoint(value=self._value, length=self._max_bits)

    def restore(self, snapshot: HistoryCheckpoint) -> None:
        """Restore a snapshot taken with :meth:`checkpoint`."""
        if snapshot.length != self._max_bits:
            raise ValueError("checkpoint was taken with a different history length")
        self._value = snapshot.value & self._mask

    def clear(self) -> None:
        """Forget all recorded outcomes."""
        self._value = 0

    def __repr__(self) -> str:
        return f"ShiftHistory(max_bits={self._max_bits}, value={self._value:#x})"


class PathHistory:
    """A path history register built from low-order bits of branch targets.

    Each update shifts in ``bits_per_branch`` low-order bits of the branch
    target (or PC), as done by TAGE-style predictors.
    """

    __slots__ = ("_max_bits", "_mask", "_bits_per_branch", "_value")

    def __init__(self, max_bits: int = 32, bits_per_branch: int = 2) -> None:
        if max_bits < 1:
            raise ValueError(f"path history length must be >= 1, got {max_bits}")
        if bits_per_branch < 1:
            raise ValueError("bits_per_branch must be >= 1")
        self._max_bits = max_bits
        self._mask = (1 << max_bits) - 1
        self._bits_per_branch = bits_per_branch
        self._value = 0

    @property
    def value(self) -> int:
        """The packed path history bits."""
        return self._value

    @property
    def max_bits(self) -> int:
        """Number of path bits retained."""
        return self._max_bits

    def push(self, address: int) -> None:
        """Shift in the low bits of a branch address."""
        low = address & ((1 << self._bits_per_branch) - 1)
        self._value = ((self._value << self._bits_per_branch) | low) & self._mask

    def checkpoint(self) -> HistoryCheckpoint:
        """Snapshot the register for later restoration."""
        return HistoryCheckpoint(value=self._value, length=self._max_bits)

    def restore(self, snapshot: HistoryCheckpoint) -> None:
        """Restore a snapshot taken with :meth:`checkpoint`."""
        if snapshot.length != self._max_bits:
            raise ValueError("checkpoint was taken with a different history length")
        self._value = snapshot.value & self._mask

    def clear(self) -> None:
        """Forget all recorded path bits."""
        self._value = 0

    def __repr__(self) -> str:
        return (f"PathHistory(max_bits={self._max_bits}, "
                f"bits_per_branch={self._bits_per_branch}, value={self._value:#x})")
