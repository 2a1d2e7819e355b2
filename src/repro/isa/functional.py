"""The functional fast-forward core of the two-speed simulation engine.

:class:`FunctionalCore` retires instructions *architecturally* -- registers,
memory, control flow -- with no pipeline model and, crucially, without
materialising :class:`~repro.isa.executor.DynamicOp` objects.  It is the
fast half of the SMARTS-style sampled simulation driver
(:mod:`repro.pipeline.sampling`): long stretches of a workload are
fast-forwarded here at millions of micro-ops per second, and only the
periodic detailed windows are *recorded* into a trace that the cycle-level
core replays.

Two execution paths share one set of semantics:

* :meth:`fast_forward` runs compiled *basic blocks*, the way a binary
  translator runs translation blocks.  A block starts at a static leader
  (index 0, every branch, jump and call target, every instruction after a
  control transfer) and ends at its first control transfer or at the next
  leader.  On its first visit, one generator emits the Python source of
  the whole block -- register-file slots, immediates, memory offsets,
  program counters and branch target indices are integer literals; the
  register files, memory accessors, call stack and warming hooks are bound
  names -- and the block is compiled into one function that applies every
  instruction in turn and returns the next static index.  ``fast_forward``
  therefore makes one call and one counter update per block.  A count that
  ends inside a block, or an entry at a non-leader (where :meth:`record`
  stopped), runs one-instruction blocks from the same generator until the
  next leader.  The ALU expressions come from the tables exported by
  :mod:`repro.isa.executor` (``BINARY_EXPRESSIONS`` et al.), which the
  handler path evaluates too, so the two paths can never diverge.
* :meth:`record` runs the handler loop of :meth:`Executor.run` from the
  current architectural state, producing a window
  :class:`~repro.isa.executor.Trace` whose micro-ops are field-identical
  to the ones an uninterrupted :class:`Executor` run would have produced
  at the same position (with window-local sequence numbers).
"""

from __future__ import annotations

from repro.isa.executor import (
    BINARY_EXPRESSIONS,
    IMMEDIATE_EXPRESSIONS,
    UNARY_EXPRESSIONS,
    ExecutionLimitExceeded,
    Executor,
    Trace,
)
from repro.isa.opcodes import Opcode
from repro.isa.program import Program
from repro.isa.registers import ArchReg, RegClass

_MASK64 = (1 << 64) - 1

#: Opcodes that end a basic block: every instruction after one is a leader.
_TRANSFERS = frozenset({Opcode.BNZ, Opcode.BZ, Opcode.JMP, Opcode.CALL, Opcode.RET})

#: The ``fast_forward`` table entry of an index with no compiled block yet
#: (a leader on its first visit, a non-leader, ``HALT`` or the end of the
#: program): it is larger than any count, so the loop takes its slow path.
_UNCOMPILED = (float("inf"), None)


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

        When given, the compiled blocks additionally call the warmer's
        ``load(pc, addr)`` / ``store(pc, addr)`` / ``cond(pc, taken,
        target_pc)`` / ``jump(pc, target_pc)`` / ``call(pc, target_pc)`` /
        ``ret(pc)`` hooks, in program order, which the sampled simulation
        driver uses for SMARTS-style functional warming of caches, BTB, RAS
        and the branch history registers during the gaps between detailed
        windows.  Warming never changes architectural results, only micro-
        architectural training state.
        """
        super().__init__(program, initial_regs=initial_regs,
                         initial_memory=initial_memory)
        self.retired = 0
        self.halted = False
        self._warmer = warmer
        limit = len(program.instructions)
        # leaders[i]: a block starts at i.  HALT and the end of the program
        # count as leaders too, so a block never runs into either.
        leaders = [False] * (limit + 1)
        leaders[0] = leaders[limit] = True
        for index, instruction in enumerate(program.instructions):
            if instruction.target is not None:
                leaders[program.target_index(instruction.target)] = True
            if instruction.opcode in _TRANSFERS:
                leaders[index + 1] = True
            elif instruction.opcode is Opcode.HALT:
                leaders[index] = True
        self._leaders = leaders
        # (size, function) of the compiled block starting at each index.
        self._blocks = [_UNCOMPILED] * (limit + 1)
        # One-instruction blocks, compiled on demand for counts that end
        # inside a block and for entries at non-leaders.
        self._singles = [None] * limit
        self._bindings = self._block_bindings()

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
        blocks = self._blocks
        index = self._index
        left = count
        try:
            while left:
                size, block = blocks[index]
                if size > left:
                    size, block = self._entry(index, left)
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

    def _entry(self, index: int, left: int) -> tuple[int, object]:
        """The block to run at ``index`` when the fast path has none that fits.

        Compiles the block of a leader on its first visit; runs a
        one-instruction block at a non-leader or when fewer than the
        block's instructions are ``left``; returns ``(0, None)`` at
        ``HALT``; raises at the end of the program.
        """
        statics = self._statics
        if index == len(statics):
            raise ExecutionLimitExceeded(
                f"program {self.program.name!r} ran past its last instruction; "
                "add an explicit halt() or loop")
        if statics[index] is None:
            return 0, None
        if self._leaders[index]:
            entry = self._blocks[index]
            if entry is _UNCOMPILED:
                stop = index + 1
                while not self._leaders[stop]:
                    stop += 1
                entry = (stop - index, self._compile(index, stop))
                self._blocks[index] = entry
            if entry[0] <= left:
                return entry
        single = self._singles[index]
        if single is None:
            single = self._singles[index] = self._compile(index, index + 1)
        return 1, single

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

    # -- the block compiler ------------------------------------------------------

    def _block_bindings(self) -> dict:
        """The names every generated block reads its objects through."""
        stack = self._call_stack
        name = self.program.name

        def unmatched_return():
            raise ExecutionLimitExceeded(
                f"return without a matching call in program {name!r}")

        bindings = {
            "ir": self._int_regs, "fr": self._fp_regs,
            "get": self._memory.get, "mem": self._memory,
            "stack": stack, "push": stack.append, "pop": stack.pop,
            "unmatched_return": unmatched_return,
        }
        warmer = self._warmer
        if warmer is not None:
            bindings.update(
                warm_load=warmer.load, warm_store=warmer.store,
                warm_cond=warmer.cond, warm_jump=warmer.jump,
                warm_call=warmer.call, warm_ret=warmer.ret)
        return bindings

    def _compile(self, start: int, stop: int):
        """Compile the instructions ``[start, stop)`` into one block function.

        The block's globals are this core's bindings, so every object it
        touches is one dictionary away and nothing but integers and the
        shared ALU expressions is ever formatted into its source.
        """
        source = "def block():\n    " + "\n    ".join(self._block_source(start, stop))
        namespace = self._bindings
        exec(compile(source, "<fast-forward block>", "exec"), namespace)
        return namespace.pop("block")

    def _block_source(self, start: int, stop: int):
        """Yield the Python source lines of the block ``[start, stop)``.

        The lines apply each instruction's full architectural effect in
        program order, call the warmer's hooks (when a warmer is attached)
        with the arguments :meth:`~repro.pipeline.sampling._GapWarmer.train_trace`
        passes for the same micro-ops, and end by returning the next
        static index.
        """
        program = self.program
        warmed = self._warmer is not None
        for index in range(start, stop):
            instruction = program.instructions[index]
            opcode = instruction.opcode
            pc = program.pc_of(index)
            nxt = index + 1
            dest = _slot(instruction.dest) if instruction.dest is not None else None
            srcs = [_slot(reg) for reg in instruction.srcs]

            if opcode in BINARY_EXPRESSIONS:
                value = BINARY_EXPRESSIONS[opcode].format(a=srcs[0], b=srcs[1])
                yield f"{dest} = ({value}) & {_MASK64}"
            elif opcode in IMMEDIATE_EXPRESSIONS:
                imm = instruction.imm
                value = IMMEDIATE_EXPRESSIONS[opcode].format(
                    a=srcs[0], imm=imm if imm >= 0 else f"({imm})")
                yield f"{dest} = ({value}) & {_MASK64}"
            elif opcode in UNARY_EXPRESSIONS:
                value = UNARY_EXPRESSIONS[opcode].format(a=srcs[0])
                yield f"{dest} = ({value}) & {_MASK64}"
            elif opcode is Opcode.MOVI:
                yield f"{dest} = {instruction.imm & _MASK64}"
            elif opcode is Opcode.FMOV or (opcode is Opcode.MOV and instruction.width == 64):
                yield f"{dest} = {srcs[0]}"
            elif opcode is Opcode.MOV and instruction.width == 32:
                # x86_64 zeroes the upper 32 bits on a 32-bit register move.
                yield f"{dest} = {srcs[0]} & 0xFFFFFFFF"
            elif opcode is Opcode.MOV:
                # 16- and 8-bit moves merge into the low bits of the destination.
                mask = 0xFFFF if instruction.width == 16 else 0xFF
                yield f"{dest} = ({dest} & {~mask & _MASK64}) | ({srcs[0]} & {mask})"
            elif opcode is Opcode.MOVZX8 and instruction.src_high8:
                yield f"{dest} = ({srcs[0]} >> 8) & 0xFF"
            elif opcode is Opcode.MOVZX8:
                yield f"{dest} = {srcs[0]} & 0xFF"
            elif opcode in (Opcode.LOAD, Opcode.FLOAD):
                yield f"a = {_address(instruction)}"
                if warmed:
                    yield f"warm_load({pc}, a)"
                # Little endian; bytes never written read as zero.
                yield f"{dest} = get(a, 0) | " + " | ".join(
                    f"get(a + {offset}, 0) << {8 * offset}"
                    for offset in range(1, instruction.mem.size))
            elif opcode in (Opcode.STORE, Opcode.FSTORE):
                yield f"a = {_address(instruction)}"
                if warmed:
                    yield f"warm_store({pc}, a)"
                yield f"v = {srcs[0]}"
                yield "mem[a] = v & 0xFF"
                for offset in range(1, instruction.mem.size):
                    yield f"mem[a + {offset}] = (v >> {8 * offset}) & 0xFF"
            elif opcode in (Opcode.BNZ, Opcode.BZ):
                target = program.target_index(instruction.target)
                compare = "!=" if opcode is Opcode.BNZ else "=="
                if warmed:
                    yield f"taken = {srcs[0]} {compare} 0"
                    yield f"warm_cond({pc}, taken, {program.pc_of(target)})"
                    yield f"return {target} if taken else {nxt}"
                else:
                    yield f"return {target} if {srcs[0]} {compare} 0 else {nxt}"
                return
            elif opcode is Opcode.JMP:
                target = program.target_index(instruction.target)
                if warmed:
                    yield f"warm_jump({pc}, {program.pc_of(target)})"
                yield f"return {target}"
                return
            elif opcode is Opcode.CALL:
                target = program.target_index(instruction.target)
                if warmed:
                    yield f"warm_call({pc}, {program.pc_of(target)})"
                yield f"push({nxt})"
                yield f"return {target}"
                return
            elif opcode is Opcode.RET:
                yield "if not stack:"
                yield "    unmatched_return()"
                if warmed:
                    yield f"warm_ret({pc})"
                yield "return pop()"
                return
            elif opcode is not Opcode.NOP:
                raise ValueError(f"no fast-forward compiler for opcode {opcode!r}")
        yield f"return {stop}"


def _slot(reg: ArchReg) -> str:
    """Source text of the register-file slot holding ``reg``."""
    name = "ir" if reg.reg_class is RegClass.INT else "fr"
    return f"{name}[{reg.index}]"


def _address(instruction) -> str:
    """Source text of a memory micro-op's effective address."""
    mem = instruction.mem
    terms = [str(mem.offset)] if mem.offset else []
    if mem.base is not None:
        terms.append(_slot(mem.base))
    if mem.index is not None:
        terms.append(_slot(mem.index) if mem.scale == 1
                     else f"{_slot(mem.index)} * {mem.scale}")
    return f"({' + '.join(terms) or '0'}) & {_MASK64}"
