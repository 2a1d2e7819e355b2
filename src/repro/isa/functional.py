"""The functional fast-forward core of the two-speed simulation engine.

:class:`FunctionalCore` retires instructions *architecturally* -- registers,
memory, control flow -- with no pipeline model and, crucially, without
materialising :class:`~repro.isa.executor.DynamicOp` objects.  It is the
fast half of the SMARTS-style sampled simulation driver
(:mod:`repro.pipeline.sampling`): long stretches of a workload are
fast-forwarded here at millions of micro-ops per second, and only the
periodic detailed windows are *recorded* into a trace that the cycle-level
core replays.

Both halves run the compiled basic blocks of
:class:`~repro.isa.executor.Executor`, emitted by one generator:

* :meth:`fast_forward` runs blocks that only retire.  Register-file slots,
  immediates, memory offsets, program counters and branch target indices
  are integer literals in their source; the register files, memory
  accessors, call stack and warming hooks are bound names.  It makes one
  call and one counter update per block.
* :meth:`record` runs the recording blocks of :meth:`Executor.run` from
  the current position, producing a window
  :class:`~repro.isa.executor.Trace` whose micro-ops are field-identical
  to the ones an uninterrupted :class:`Executor` run would have produced
  at the same position (with window-local sequence numbers).

With a warmer attached, blocks of both kinds call its hooks, so the warmer
sees the whole instruction stream in program order.
"""

from __future__ import annotations

from repro.isa.executor import ExecutionLimitExceeded, Executor, Trace
from repro.isa.program import Program
from repro.isa.registers import ArchReg


class FunctionalCore(Executor):
    """Architectural executor with fast-forward and windowed recording.

    Unlike :class:`Executor` (one-shot ``run``), a ``FunctionalCore`` keeps
    its position in the program between calls: ``fast_forward`` and
    ``record`` can be interleaved freely, which is exactly what the sampled
    simulation driver does.
    """

    def __init__(self, program: Program,
                 initial_regs: dict[ArchReg, int] | None = None,
                 initial_memory: dict[int, int] | None = None,
                 warmer=None) -> None:
        """``warmer`` optionally observes the retired stream.

        When given, the compiled blocks additionally call the warmer's
        ``load(pc, addr)`` / ``store(pc, addr)`` / ``cond(pc, taken,
        target_pc)`` / ``jump(pc, target_pc)`` / ``call(pc, target_pc)`` /
        ``ret(pc)`` hooks, in program order, both while fast-forwarding and
        while recording.  The sampled simulation driver uses them for
        SMARTS-style functional warming of caches, BTB, RAS and the branch
        history registers over the whole run.  Warming never changes
        architectural results, only micro-architectural training state.
        """
        # Attached before the blocks' bindings are made.
        self._warmer = warmer
        super().__init__(program, initial_regs=initial_regs,
                         initial_memory=initial_memory)
        self.retired = 0
        self.halted = False

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_image(cls, image, warmer=None) -> "FunctionalCore":
        """Build a core from a :class:`~repro.workloads.base.WorkloadImage`."""
        return cls(image.program, initial_regs=image.initial_regs,
                   initial_memory=image.initial_memory, warmer=warmer)

    # -- fast-forward ------------------------------------------------------------

    def fast_forward(self, count: int) -> int:
        """Retire up to ``count`` micro-ops architecturally; returns the number retired.

        Stops early at ``HALT``.  Falling off the end of the program, or a
        ``RET`` with no matching call, raises
        :class:`ExecutionLimitExceeded`, exactly like :meth:`Executor.run`;
        the position and :attr:`retired` then still account for every
        instruction that ran before it.
        """
        if count <= 0 or self.halted:
            return 0
        blocks = self._blocks[False]
        index = self._index
        left = count
        try:
            while left:
                size, block = blocks[index]
                if size > left:
                    size, block = self._entry(index, left, False)
                    if block is None:  # HALT
                        self.halted = True
                        break
                index = block()
                left -= size
        except ExecutionLimitExceeded:
            if block is not None:
                # A block raised, not ``_entry`` at the end of the program.
                # Only a block's closing RET raises, so the rest of it ran.
                index += size - 1
                left -= size - 1
            raise
        finally:
            self._index = index
            self.retired += count - left
        return count - left

    # -- windowed recording ------------------------------------------------------

    def record(self, count: int, name: str | None = None) -> Trace:
        """Retire up to ``count`` micro-ops, recording them as a window trace.

        This is the recording loop of :meth:`Executor.run`, started at the
        current position.  Sequence numbers are window-local (they start at
        0) because the cycle-level core indexes ``trace.ops`` by ``seq``;
        :attr:`retired` keeps the global position.
        """
        trace = Trace(name=name or f"{self.program.name}@{self.retired}",
                      program=self.program)
        if count <= 0 or self.halted:
            return trace
        try:
            self.halted = self._execute(trace, count)
        finally:
            self.retired += len(trace)
        return trace
