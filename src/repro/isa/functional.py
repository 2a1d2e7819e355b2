"""The functional fast-forward core of the two-speed simulation engine.

:class:`FunctionalCore` retires instructions *architecturally* -- registers,
memory, control flow -- with no pipeline model and, crucially, without
materialising :class:`~repro.isa.executor.DynamicOp` objects.  It is the
fast half of the SMARTS-style sampled simulation driver
(:mod:`repro.pipeline.sampling`): long stretches of a workload are
fast-forwarded here at hundreds of thousands to millions of micro-ops per
second, and only the periodic detailed windows are *recorded* into a trace
that the cycle-level core replays.

Two execution paths share one set of semantics:

* :meth:`fast_forward` runs per-static-instruction *compiled closures*.
  Each closure is built once, on first visit, from the decoded-field cache
  (:func:`repro.isa.executor._precompute_static`, introduced for the trace
  generator's hot path) and captures concrete register-file slots, memory
  accessors and branch target indices.  The ALU value semantics come from
  the raw lambda tables exported by :mod:`repro.isa.executor`
  (``RAW_BINARY_OPS`` et al.), so the compiled path can never diverge from
  the handler path.
* :meth:`record` runs the handler loop of :meth:`Executor.run` from the
  current architectural state, producing a window
  :class:`~repro.isa.executor.Trace` whose micro-ops are field-identical
  to the ones an uninterrupted :class:`Executor` run would have produced
  at the same position (with window-local sequence numbers).
"""

from __future__ import annotations

from repro.isa.executor import (
    ExecutionLimitExceeded,
    Executor,
    RAW_BINARY_OPS,
    RAW_IMMEDIATE_OPS,
    RAW_UNARY_OPS,
    Trace,
)
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import ArchReg, RegClass

_MASK64 = (1 << 64) - 1


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
        """``warmer`` optionally observes the fast-forwarded stream.

        When given, the compiled closures additionally call the warmer's
        ``load(pc, addr)`` / ``store(pc, addr)`` / ``cond(pc, taken,
        target_pc)`` / ``jump(pc, target_pc)`` / ``call(pc, target_pc)`` /
        ``ret(pc)`` hooks, which the sampled simulation driver uses for
        SMARTS-style functional warming of caches, BTB, RAS and the branch
        history registers during the gaps between detailed windows.
        Warming never changes architectural results, only micro-
        architectural training state.
        """
        super().__init__(program, initial_regs=initial_regs,
                         initial_memory=initial_memory)
        self.retired = 0
        self.halted = False
        self._warmer = warmer
        # Compiled fast-forward steps, built lazily per static instruction.
        self._compiled: list = [None] * len(program.instructions)

    # -- construction ------------------------------------------------------------

    @classmethod
    def from_image(cls, image, warmer=None) -> "FunctionalCore":
        """Build a core from a :class:`~repro.workloads.base.WorkloadImage`."""
        return cls(image.program, initial_regs=image.initial_regs,
                   initial_memory=image.initial_memory, warmer=warmer)

    # -- fast-forward ------------------------------------------------------------

    def fast_forward(self, count: int) -> int:
        """Retire up to ``count`` micro-ops architecturally; returns the number retired.

        Stops early at ``HALT``.  Falling off the end of the program raises
        :class:`ExecutionLimitExceeded`, exactly like :meth:`Executor.run`.
        """
        if count <= 0 or self.halted:
            return 0
        compiled = self._compiled
        statics = self._statics
        limit = len(statics)
        index = self._index
        retired = 0
        compile_step = self._compile_step
        while retired < count:
            if index >= limit:
                # Keep the position and retire counters consistent with the
                # architectural state already mutated by this call.
                self._index = index
                self.retired += retired
                raise ExecutionLimitExceeded(
                    f"program {self.program.name!r} ran past its last instruction; "
                    "add an explicit halt() or loop")
            step = compiled[index]
            if step is None:
                if statics[index] is None:  # HALT
                    self.halted = True
                    break
                step = compile_step(index)
                compiled[index] = step
            index = step()
            retired += 1
        self._index = index
        self.retired += retired
        return retired

    # -- windowed recording ------------------------------------------------------

    def record(self, count: int, name: str | None = None) -> Trace:
        """Retire up to ``count`` micro-ops, recording them as a window trace.

        This is the handler-based loop of :meth:`Executor.run`, started at
        the current position.  Sequence numbers are window-local (they
        start at 0) because the cycle-level core indexes ``trace.ops`` by
        ``seq``; :attr:`retired` keeps the global position.
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

    # -- the fast-forward compiler -------------------------------------------------

    def _reg_slot(self, reg: ArchReg) -> tuple[list[int], int]:
        """The (register file list, index) pair a closure reads or writes."""
        if reg.reg_class is RegClass.INT:
            return self._int_regs, reg.index
        return self._fp_regs, reg.index

    def _compile_address(self, instruction):
        """Compile the effective-address computation of a memory micro-op."""
        mem = instruction.mem
        offset = mem.offset
        scale = mem.scale
        if mem.base is not None and mem.index is not None:
            rb, ib = self._reg_slot(mem.base)
            ri, ii = self._reg_slot(mem.index)
            return lambda: (offset + rb[ib] + ri[ii] * scale) & _MASK64
        if mem.base is not None:
            rb, ib = self._reg_slot(mem.base)
            return lambda: (offset + rb[ib]) & _MASK64
        if mem.index is not None:
            ri, ii = self._reg_slot(mem.index)
            return lambda: (offset + ri[ii] * scale) & _MASK64
        return lambda: offset & _MASK64

    def _compile_step(self, index: int):
        """Build the compiled fast-forward closure for one static instruction.

        Every closure applies the instruction's full architectural effect
        and returns the next static index.  The value semantics are the raw
        lambdas shared with the handler table, so ``fast_forward`` and
        ``record`` can never disagree.
        """
        instruction = self.program.instructions[index]
        opcode = instruction.opcode
        nxt = index + 1

        fn = RAW_BINARY_OPS.get(opcode)
        if fn is not None:
            rd, di = self._reg_slot(instruction.dest)
            ra, ai = self._reg_slot(instruction.srcs[0])
            rb, bi = self._reg_slot(instruction.srcs[1])

            def step_binary():
                rd[di] = fn(ra[ai], rb[bi]) & _MASK64
                return nxt
            return step_binary

        fn = RAW_IMMEDIATE_OPS.get(opcode)
        if fn is not None:
            rd, di = self._reg_slot(instruction.dest)
            ra, ai = self._reg_slot(instruction.srcs[0])
            imm = instruction.imm

            def step_immediate():
                rd[di] = fn(ra[ai], imm) & _MASK64
                return nxt
            return step_immediate

        fn = RAW_UNARY_OPS.get(opcode)
        if fn is not None:
            rd, di = self._reg_slot(instruction.dest)
            ra, ai = self._reg_slot(instruction.srcs[0])

            def step_unary():
                rd[di] = fn(ra[ai]) & _MASK64
                return nxt
            return step_unary

        if opcode is Opcode.MOVI:
            rd, di = self._reg_slot(instruction.dest)
            value = instruction.imm & _MASK64

            def step_movi():
                rd[di] = value
                return nxt
            return step_movi

        if opcode in (Opcode.MOV, Opcode.FMOV):
            rd, di = self._reg_slot(instruction.dest)
            ra, ai = self._reg_slot(instruction.srcs[0])
            width = instruction.width
            if opcode is Opcode.FMOV or width == 64:
                def step_mov64():
                    rd[di] = ra[ai]
                    return nxt
                return step_mov64
            if width == 32:
                def step_mov32():
                    rd[di] = ra[ai] & 0xFFFFFFFF
                    return nxt
                return step_mov32
            mask = 0xFFFF if width == 16 else 0xFF

            def step_mov_merge():
                rd[di] = (rd[di] & ~mask) & _MASK64 | (ra[ai] & mask)
                return nxt
            return step_mov_merge

        if opcode is Opcode.MOVZX8:
            rd, di = self._reg_slot(instruction.dest)
            ra, ai = self._reg_slot(instruction.srcs[0])
            if instruction.src_high8:
                def step_movzx_high():
                    rd[di] = (ra[ai] >> 8) & 0xFF
                    return nxt
                return step_movzx_high

            def step_movzx_low():
                rd[di] = ra[ai] & 0xFF
                return nxt
            return step_movzx_low

        if opcode in (Opcode.LOAD, Opcode.FLOAD):
            rd, di = self._reg_slot(instruction.dest)
            address = self._compile_address(instruction)
            size = instruction.mem.size
            get = self._memory.get
            if size == 8:
                def step_load():
                    a = address()
                    rd[di] = (get(a, 0) | get(a + 1, 0) << 8 | get(a + 2, 0) << 16
                              | get(a + 3, 0) << 24 | get(a + 4, 0) << 32
                              | get(a + 5, 0) << 40 | get(a + 6, 0) << 48
                              | get(a + 7, 0) << 56)
                    return nxt
            else:
                def step_load():
                    a = address()
                    rd[di] = (get(a, 0) | get(a + 1, 0) << 8 | get(a + 2, 0) << 16
                              | get(a + 3, 0) << 24)
                    return nxt
            if self._warmer is None:
                return step_load
            # Warmed variant: one address computation feeds both the warm
            # hook and the (re-inlined) load body.
            warm_load = self._warmer.load
            pc = self.program.pc_of(index)
            if size == 8:
                def step_load_warmed():
                    a = address()
                    warm_load(pc, a)
                    rd[di] = (get(a, 0) | get(a + 1, 0) << 8 | get(a + 2, 0) << 16
                              | get(a + 3, 0) << 24 | get(a + 4, 0) << 32
                              | get(a + 5, 0) << 40 | get(a + 6, 0) << 48
                              | get(a + 7, 0) << 56)
                    return nxt
            else:
                def step_load_warmed():
                    a = address()
                    warm_load(pc, a)
                    rd[di] = (get(a, 0) | get(a + 1, 0) << 8 | get(a + 2, 0) << 16
                              | get(a + 3, 0) << 24)
                    return nxt
            return step_load_warmed

        if opcode in (Opcode.STORE, Opcode.FSTORE):
            ra, ai = self._reg_slot(instruction.srcs[0])
            address = self._compile_address(instruction)
            size = instruction.mem.size
            memory = self._memory
            if size == 8:
                def step_store():
                    a = address()
                    v = ra[ai]
                    memory[a] = v & 0xFF
                    memory[a + 1] = (v >> 8) & 0xFF
                    memory[a + 2] = (v >> 16) & 0xFF
                    memory[a + 3] = (v >> 24) & 0xFF
                    memory[a + 4] = (v >> 32) & 0xFF
                    memory[a + 5] = (v >> 40) & 0xFF
                    memory[a + 6] = (v >> 48) & 0xFF
                    memory[a + 7] = (v >> 56) & 0xFF
                    return nxt
            else:
                def step_store():
                    a = address()
                    v = ra[ai] & 0xFFFFFFFF
                    memory[a] = v & 0xFF
                    memory[a + 1] = (v >> 8) & 0xFF
                    memory[a + 2] = (v >> 16) & 0xFF
                    memory[a + 3] = (v >> 24) & 0xFF
                    return nxt
            if self._warmer is None:
                return step_store
            warm_store = self._warmer.store
            pc = self.program.pc_of(index)
            if size == 8:
                def step_store_warmed():
                    a = address()
                    warm_store(pc, a)
                    v = ra[ai]
                    memory[a] = v & 0xFF
                    memory[a + 1] = (v >> 8) & 0xFF
                    memory[a + 2] = (v >> 16) & 0xFF
                    memory[a + 3] = (v >> 24) & 0xFF
                    memory[a + 4] = (v >> 32) & 0xFF
                    memory[a + 5] = (v >> 40) & 0xFF
                    memory[a + 6] = (v >> 48) & 0xFF
                    memory[a + 7] = (v >> 56) & 0xFF
                    return nxt
            else:
                def step_store_warmed():
                    a = address()
                    warm_store(pc, a)
                    v = ra[ai] & 0xFFFFFFFF
                    memory[a] = v & 0xFF
                    memory[a + 1] = (v >> 8) & 0xFF
                    memory[a + 2] = (v >> 16) & 0xFF
                    memory[a + 3] = (v >> 24) & 0xFF
                    return nxt
            return step_store_warmed

        if opcode in (Opcode.BNZ, Opcode.BZ):
            ra, ai = self._reg_slot(instruction.srcs[0])
            target = self.program.target_index(instruction.target)
            want_nonzero = opcode is Opcode.BNZ
            if self._warmer is None:
                if want_nonzero:
                    def step_bnz():
                        return target if ra[ai] != 0 else nxt
                    return step_bnz

                def step_bz():
                    return target if ra[ai] == 0 else nxt
                return step_bz
            warm_cond = self._warmer.cond
            pc = self.program.pc_of(index)
            target_pc = self.program.pc_of(target)

            def step_cond_warmed():
                taken = (ra[ai] != 0) == want_nonzero
                warm_cond(pc, taken, target_pc)
                return target if taken else nxt
            return step_cond_warmed

        if opcode is Opcode.JMP:
            target = self.program.target_index(instruction.target)
            if self._warmer is None:
                return lambda: target
            warm_jump = self._warmer.jump
            pc = self.program.pc_of(index)
            target_pc = self.program.pc_of(target)

            def step_jmp_warmed():
                warm_jump(pc, target_pc)
                return target
            return step_jmp_warmed

        if opcode is Opcode.CALL:
            target = self.program.target_index(instruction.target)
            stack = self._call_stack
            if self._warmer is None:
                def step_call():
                    stack.append(nxt)
                    return target
                return step_call
            warm_call = self._warmer.call
            pc = self.program.pc_of(index)
            target_pc = self.program.pc_of(target)

            def step_call_warmed():
                warm_call(pc, target_pc)
                stack.append(nxt)
                return target
            return step_call_warmed

        if opcode is Opcode.RET:
            stack = self._call_stack
            name = self.program.name
            if self._warmer is None:
                def step_ret():
                    if not stack:
                        raise ExecutionLimitExceeded(
                            f"return without a matching call in program {name!r}")
                    return stack.pop()
                return step_ret
            warm_ret = self._warmer.ret
            pc = self.program.pc_of(index)

            def step_ret_warmed():
                if not stack:
                    raise ExecutionLimitExceeded(
                        f"return without a matching call in program {name!r}")
                warm_ret(pc)
                return stack.pop()
            return step_ret_warmed

        if opcode is Opcode.NOP:
            return lambda: nxt

        raise ValueError(f"no fast-forward compiler for opcode {opcode!r}")
