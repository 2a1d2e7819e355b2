"""A return address stack.

Calls push their fall-through address; returns pop the predicted target.
The stack is a fixed-size circular structure, so deep recursion silently
wraps and older entries are lost -- exactly the behaviour that makes real
return address stacks occasionally mispredict.
"""

from __future__ import annotations


class ReturnAddressStack:
    """A fixed-depth return address stack (32 entries in Table 1)."""

    def __init__(self, depth: int = 32) -> None:
        if depth < 1:
            raise ValueError("return address stack depth must be >= 1")
        self.depth = depth
        self._stack: list[int] = []
        self.overflows = 0
        self.underflows = 0

    def push(self, return_address: int) -> None:
        """Record the fall-through address of a call."""
        if len(self._stack) >= self.depth:
            # The oldest entry is lost, as in a real circular RAS.
            self._stack.pop(0)
            self.overflows += 1
        self._stack.append(return_address)

    def pop(self) -> int | None:
        """Predict the target of a return; ``None`` when the stack is empty."""
        if not self._stack:
            self.underflows += 1
            return None
        return self._stack.pop()

    def __len__(self) -> int:
        return len(self._stack)

    def clear(self) -> None:
        """Empty the stack (used on pipeline flushes that discard call context)."""
        self._stack.clear()

    # -- snapshot / restore (two-speed simulation) ----------------------------------

    def to_snapshot(self) -> list[int]:
        """Serialise the stack contents (bottom first)."""
        return list(self._stack)

    def restore_snapshot(self, snapshot: list[int]) -> None:
        """Overwrite the stack with a :meth:`to_snapshot` image."""
        if len(snapshot) > self.depth:
            raise ValueError("RAS snapshot deeper than this stack")
        self._stack[:] = snapshot

    def __repr__(self) -> str:
        return f"ReturnAddressStack(depth={self.depth}, occupancy={len(self._stack)})"
