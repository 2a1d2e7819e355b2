"""Functional execution of programs into dynamic micro-op traces.

The reproduction uses a *trace-driven* timing model: a program is first
executed functionally by :class:`Executor`, which records every dynamic
micro-op together with its concrete result value, memory address, memory
value and branch outcome.  The cycle-level core model then replays this
trace, so that

* move elimination can be checked against real register values,
* speculative memory bypassing can be *validated* exactly as in the paper
  (compare the bypassed register's value with the value actually loaded),
* the Data Dependency Table sees real virtual addresses, and
* the branch predictor sees the real taken/not-taken stream.

All register values are 64-bit unsigned integers.  Floating-point micro-ops
operate on the same 64-bit domain with distinct mixing functions; the timing
model only cares about dependencies and value equality, not IEEE semantics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instructions import Instruction
from repro.isa.opcodes import OpClass, Opcode, op_class
from repro.isa.program import Program
from repro.isa.registers import NUM_FP_REGS, NUM_INT_REGS, ArchReg, RegClass

_MASK64 = (1 << 64) - 1


class ExecutionLimitExceeded(RuntimeError):
    """Raised when a program does not halt within the configured budgets."""


#: Names of the derived classification fields on :class:`DynamicOp`, in the
#: order :func:`derive_classification` produces them.
_DERIVED_FIELD_NAMES = (
    "is_load", "is_store", "is_branch", "is_conditional_branch",
    "is_move", "writes_register", "dest_flat", "src_flats",
)


def derive_classification(opcode, op_class, dest, srcs) -> tuple:
    """Compute the derived classification fields of a micro-op.

    The single source of truth shared by :meth:`DynamicOp.__post_init__`
    (hand-constructed ops) and the executor's per-static-instruction cache
    (generated traces), so the two paths can never classify differently.
    Returns values in ``_DERIVED_FIELD_NAMES`` order.
    """
    return (
        op_class is OpClass.LOAD,
        op_class is OpClass.STORE,
        op_class is OpClass.BRANCH,
        opcode in (Opcode.BNZ, Opcode.BZ),
        opcode in (Opcode.MOV, Opcode.MOVZX8, Opcode.FMOV),
        dest is not None,
        dest.flat_index if dest is not None else -1,
        tuple(src.flat_index for src in srcs),
    )


@dataclass(frozen=True, slots=True)
class DynamicOp:
    """One dynamic micro-op of a trace.

    The fields capture everything the timing model needs: operands for
    dependence tracking, the result value for sharing validation, the memory
    address/size for the data cache, store queue and DDT, and the resolved
    branch behaviour for the front end.

    The trailing block of non-init fields (``is_load`` ... ``src_flats``)
    is *derived* from the others in ``__post_init__``.  The timing model
    replays the same micro-op once per (scheme x sizing) configuration, so
    classification and flat-register-index lookups are paid once at trace
    generation time instead of on every replay (they used to be properties
    on the pipeline's hottest paths).
    """

    seq: int
    pc: int
    static_index: int
    opcode: Opcode
    op_class: OpClass
    dest: ArchReg | None
    srcs: tuple[ArchReg, ...]
    width: int = 64
    src_high8: bool = False
    imm: int = 0
    result: int | None = None
    mem_addr: int | None = None
    mem_size: int = 8
    store_value: int | None = None
    next_pc: int = 0
    taken: bool = False
    target_pc: int | None = None
    # -- derived, precomputed classification (see class docstring).  The
    # executor passes these in from its per-static-instruction cache; when
    # constructed by hand (tests, tools) they are derived automatically.
    is_load: bool = None
    is_store: bool = None
    is_branch: bool = None
    is_conditional_branch: bool = None
    is_move: bool = None
    writes_register: bool = None
    dest_flat: int = None
    src_flats: tuple[int, ...] = None

    def __post_init__(self) -> None:
        supplied = (self.is_load, self.is_store, self.is_branch,
                    self.is_conditional_branch, self.is_move,
                    self.writes_register, self.dest_flat, self.src_flats)
        if all(value is not None for value in supplied):
            return
        # Derive everything unless the caller supplied the complete set (a
        # partial set would leave None flags that read as falsy downstream).
        set_ = object.__setattr__
        values = derive_classification(self.opcode, self.op_class, self.dest, self.srcs)
        for name, value in zip(_DERIVED_FIELD_NAMES, values):
            set_(self, name, value)

    def __repr__(self) -> str:
        dest = self.dest.name if self.dest else "-"
        return f"DynamicOp(seq={self.seq}, pc={self.pc:#x}, {self.opcode.value}, dest={dest})"


@dataclass
class Trace:
    """A fully resolved dynamic micro-op stream for one workload."""

    name: str
    ops: list[DynamicOp] = field(default_factory=list)
    program: Program | None = None

    def __len__(self) -> int:
        return len(self.ops)

    def __iter__(self):
        return iter(self.ops)

    def __getitem__(self, index: int) -> DynamicOp:
        return self.ops[index]

    def count(self, predicate) -> int:
        """Number of dynamic micro-ops satisfying ``predicate``."""
        return sum(1 for op in self.ops if predicate(op))


class Executor:
    """Architectural (functional) executor for :class:`~repro.isa.program.Program`.

    Parameters
    ----------
    program:
        The static program to execute.
    initial_regs:
        Optional initial values for architectural registers.
    initial_memory:
        Optional initial memory image as a mapping from aligned address to
        64-bit word.
    """

    def __init__(self, program: Program,
                 initial_regs: dict[ArchReg, int] | None = None,
                 initial_memory: dict[int, int] | None = None) -> None:
        program.validate()
        self.program = program
        self._int_regs = [0] * NUM_INT_REGS
        self._fp_regs = [0] * NUM_FP_REGS
        self._memory: dict[int, int] = {}
        self._call_stack: list[int] = []
        #: Static index of the next instruction to execute.
        self._index = 0
        self._statics = [_precompute_static(program, index, instruction)
                         for index, instruction in enumerate(program.instructions)]
        if initial_regs:
            for reg, value in initial_regs.items():
                self._write_reg(reg, value)
        if initial_memory:
            for address, value in initial_memory.items():
                self._write_memory(address, value & _MASK64, 8)

    # -- architectural state accessors -------------------------------------------

    def read_reg(self, reg: ArchReg) -> int:
        """Return the current architectural value of ``reg``."""
        if reg.reg_class is RegClass.INT:
            return self._int_regs[reg.index]
        return self._fp_regs[reg.index]

    def _write_reg(self, reg: ArchReg, value: int) -> None:
        value &= _MASK64
        if reg.reg_class is RegClass.INT:
            self._int_regs[reg.index] = value
        else:
            self._fp_regs[reg.index] = value

    def state_digest(self) -> str:
        """SHA-256 digest of the full architectural state (registers + memory).

        The differential test layer uses this to pin the functional
        semantics of a workload: every tracker scheme replays the same
        trace, so the committed architectural state must be independent of
        the timing configuration, and hot-path optimisations must not
        change it.
        """
        import hashlib

        digest = hashlib.sha256()
        for value in self._int_regs:
            digest.update(value.to_bytes(8, "little"))
        for value in self._fp_regs:
            digest.update(value.to_bytes(8, "little"))
        for address in sorted(self._memory):
            digest.update(address.to_bytes(8, "little"))
            digest.update(self._memory[address].to_bytes(1, "little"))
        return digest.hexdigest()

    def read_memory(self, address: int, size: int = 8) -> int:
        """Read ``size`` bytes of memory (little endian, missing bytes are zero)."""
        value = 0
        for offset in range(size):
            value |= self._memory.get(address + offset, 0) << (8 * offset)
        return value

    def _write_memory(self, address: int, value: int, size: int) -> None:
        for offset in range(size):
            self._memory[address + offset] = (value >> (8 * offset)) & 0xFF

    # -- execution ----------------------------------------------------------------

    def run(self, max_ops: int = 1_000_000) -> Trace:
        """Execute the program and return its dynamic trace.

        Execution stops at ``HALT`` or after ``max_ops`` dynamic micro-ops,
        whichever comes first.  Falling off the end of the program raises
        :class:`ExecutionLimitExceeded` because workloads are expected to be
        explicit about termination.
        """
        trace = Trace(name=self.program.name, program=self.program)
        self._execute(trace, max_ops)
        return trace

    def _execute(self, trace: Trace, count: int) -> bool:
        """Execute from ``self._index`` until ``trace`` holds ``count`` micro-ops.

        The one handler loop behind :meth:`run` and
        ``FunctionalCore.record``.  Each micro-op's ``seq`` is its position
        in ``trace``.  Returns ``True`` when it stopped at ``HALT``.
        ``self._index`` is left at the next instruction to execute, also
        when a handler raises or the program runs off its end
        (:class:`ExecutionLimitExceeded`).
        """
        index = self._index
        instructions = self.program.instructions
        statics = self._statics
        limit = len(instructions)
        base_pc = self.program.BASE_PC
        bytes_per_op = self.program.BYTES_PER_OP
        ops = trace.ops
        append = ops.append
        write_reg = self._write_reg
        try:
            while len(ops) < count:
                if index >= limit:
                    raise ExecutionLimitExceeded(
                        f"program {self.program.name!r} ran past its last instruction; "
                        "add an explicit halt() or loop"
                    )
                static = statics[index]
                if static is None:  # HALT
                    return True
                pc, opcode, op_cls, dest, srcs, width, src_high8, imm, derived, handler = static
                instruction = instructions[index]
                result, mem_addr, mem_size, store_value, taken, target_pc, next_index = \
                    handler(self, instruction, index)
                if dest is not None and result is not None:
                    write_reg(dest, result)
                next_pc = (base_pc + next_index * bytes_per_op) if next_index < limit else pc + 4
                append(DynamicOp(
                    len(ops), pc, index, opcode, op_cls, dest, srcs, width, src_high8,
                    imm, result, mem_addr, mem_size, store_value, next_pc, taken,
                    target_pc, *derived,
                ))
                index = next_index
            return False
        finally:
            self._index = index

    def _execute_move(self, instruction: Instruction) -> int:
        """Register-to-register move semantics, including x86-style partial widths."""
        source = self.read_reg(instruction.srcs[0])
        if instruction.opcode is Opcode.FMOV or instruction.width == 64:
            return source
        if instruction.width == 32:
            # x86_64 zeroes the upper 32 bits on a 32-bit register move.
            return source & 0xFFFFFFFF
        destination = self.read_reg(instruction.dest)
        if instruction.width == 16:
            return (destination & ~0xFFFF) & _MASK64 | (source & 0xFFFF)
        # 8-bit move merges into the low byte of the destination.
        return (destination & ~0xFF) & _MASK64 | (source & 0xFF)

    def _effective_address(self, instruction: Instruction) -> tuple[int, int]:
        """Compute the byte address and size of a memory micro-op."""
        mem = instruction.mem
        address = mem.offset
        if mem.base is not None:
            address += self.read_reg(mem.base)
        if mem.index is not None:
            address += self.read_reg(mem.index) * mem.scale
        return address & _MASK64, mem.size


def _binary(handler):
    """Wrap a two-source integer operation handler."""

    def wrapped(executor: Executor, instruction: Instruction) -> int:
        a = executor.read_reg(instruction.srcs[0])
        b = executor.read_reg(instruction.srcs[1])
        return handler(a, b) & _MASK64

    return wrapped


def _immediate(handler):
    """Wrap a source-plus-immediate integer operation handler."""

    def wrapped(executor: Executor, instruction: Instruction) -> int:
        a = executor.read_reg(instruction.srcs[0])
        return handler(a, instruction.imm) & _MASK64

    return wrapped


def _unary(handler):
    """Wrap a single-source operation handler."""

    def wrapped(executor: Executor, instruction: Instruction) -> int:
        a = executor.read_reg(instruction.srcs[0])
        return handler(a) & _MASK64

    return wrapped


#: Raw value semantics of the two-source / immediate / one-source ALU
#: micro-ops.  These plain ``int -> int`` lambdas are the single source of
#: truth shared by the executor's handler table below and by the
#: fast-forward compiler in :mod:`repro.isa.functional` -- the two execution
#: backends can therefore never compute different results.
RAW_BINARY_OPS = {
    Opcode.IADD: lambda a, b: a + b,
    Opcode.ISUB: lambda a, b: a - b,
    Opcode.IAND: lambda a, b: a & b,
    Opcode.IOR: lambda a, b: a | b,
    Opcode.IXOR: lambda a, b: a ^ b,
    Opcode.ISHL: lambda a, b: a << (b & 63),
    Opcode.ISHR: lambda a, b: a >> (b & 63),
    Opcode.ICMPEQ: lambda a, b: 1 if a == b else 0,
    Opcode.ICMPLT: lambda a, b: 1 if a < b else 0,
    Opcode.IMUL: lambda a, b: a * b,
    Opcode.IDIV: lambda a, b: a // b if b else 0,
    Opcode.FADD: lambda a, b: a + b,
    Opcode.FSUB: lambda a, b: a - b,
    Opcode.FMUL: lambda a, b: (a * b) ^ ((a * b) >> 17),
    Opcode.FDIV: lambda a, b: (a // b if b else 0) ^ 0x5A5A5A5A,
}

RAW_IMMEDIATE_OPS = {
    Opcode.IADDI: lambda a, imm: a + imm,
    Opcode.IANDI: lambda a, imm: a & imm,
    Opcode.ISHLI: lambda a, imm: a << (imm & 63),
    Opcode.ISHRI: lambda a, imm: a >> (imm & 63),
}

RAW_UNARY_OPS = {
    Opcode.I2F: lambda a: a,
    Opcode.F2I: lambda a: a,
}

_ALU_HANDLERS = {
    **{opcode: _binary(handler) for opcode, handler in RAW_BINARY_OPS.items()},
    **{opcode: _immediate(handler) for opcode, handler in RAW_IMMEDIATE_OPS.items()},
    **{opcode: _unary(handler) for opcode, handler in RAW_UNARY_OPS.items()},
}


# ---------------------------------------------------------------------------
# Per-opcode dispatch table
# ---------------------------------------------------------------------------
#
# Every handler computes the full dynamic effect of one static instruction:
# ``(result, mem_addr, mem_size, store_value, taken, target_pc, next_index)``.
# :meth:`Executor._execute` indexes this table directly instead of walking an
# if/elif chain, which keeps the per-micro-op cost flat across opcodes.

#: Precomputed opcode -> OpClass mapping (avoids a function call per micro-op).
_CLASS_OF = {opcode: op_class(opcode) for opcode in Opcode if opcode is not Opcode.HALT}


def _step_alu(handler):
    """Adapt a result-only ALU handler to the full-effect signature."""

    def step(executor: Executor, instruction: Instruction, index: int):
        return handler(executor, instruction), None, 8, None, False, None, index + 1

    return step


def _step_movi(executor: Executor, instruction: Instruction, index: int):
    return instruction.imm & _MASK64, None, 8, None, False, None, index + 1


def _step_move(executor: Executor, instruction: Instruction, index: int):
    return executor._execute_move(instruction), None, 8, None, False, None, index + 1


def _step_movzx8(executor: Executor, instruction: Instruction, index: int):
    source = executor.read_reg(instruction.srcs[0])
    byte = (source >> 8) & 0xFF if instruction.src_high8 else source & 0xFF
    return byte, None, 8, None, False, None, index + 1


def _step_load(executor: Executor, instruction: Instruction, index: int):
    mem_addr, mem_size = executor._effective_address(instruction)
    return (executor.read_memory(mem_addr, mem_size), mem_addr, mem_size, None,
            False, None, index + 1)


def _step_store(executor: Executor, instruction: Instruction, index: int):
    mem_addr, mem_size = executor._effective_address(instruction)
    store_value = executor.read_reg(instruction.srcs[0])
    if mem_size == 4:
        store_value &= 0xFFFFFFFF
    executor._write_memory(mem_addr, store_value, mem_size)
    return None, mem_addr, mem_size, store_value, False, None, index + 1


def _step_bnz(executor: Executor, instruction: Instruction, index: int):
    taken = executor.read_reg(instruction.srcs[0]) != 0
    target_index = executor.program.target_index(instruction.target)
    target_pc = executor.program.pc_of(target_index)
    return None, None, 8, None, taken, target_pc, target_index if taken else index + 1


def _step_bz(executor: Executor, instruction: Instruction, index: int):
    taken = executor.read_reg(instruction.srcs[0]) == 0
    target_index = executor.program.target_index(instruction.target)
    target_pc = executor.program.pc_of(target_index)
    return None, None, 8, None, taken, target_pc, target_index if taken else index + 1


def _step_jmp(executor: Executor, instruction: Instruction, index: int):
    next_index = executor.program.target_index(instruction.target)
    return None, None, 8, None, True, executor.program.pc_of(next_index), next_index


def _step_call(executor: Executor, instruction: Instruction, index: int):
    executor._call_stack.append(index + 1)
    next_index = executor.program.target_index(instruction.target)
    return None, None, 8, None, True, executor.program.pc_of(next_index), next_index


def _step_ret(executor: Executor, instruction: Instruction, index: int):
    if not executor._call_stack:
        raise ExecutionLimitExceeded(
            f"return without a matching call in program {executor.program.name!r}"
        )
    next_index = executor._call_stack.pop()
    return None, None, 8, None, True, executor.program.pc_of(next_index), next_index


def _step_nop(executor: Executor, instruction: Instruction, index: int):
    return None, None, 8, None, False, None, index + 1


_DISPATCH = {opcode: _step_alu(handler) for opcode, handler in _ALU_HANDLERS.items()}
_DISPATCH.update({
    Opcode.MOVI: _step_movi,
    Opcode.MOV: _step_move,
    Opcode.FMOV: _step_move,
    Opcode.MOVZX8: _step_movzx8,
    Opcode.LOAD: _step_load,
    Opcode.FLOAD: _step_load,
    Opcode.STORE: _step_store,
    Opcode.FSTORE: _step_store,
    Opcode.BNZ: _step_bnz,
    Opcode.BZ: _step_bz,
    Opcode.JMP: _step_jmp,
    Opcode.CALL: _step_call,
    Opcode.RET: _step_ret,
    Opcode.NOP: _step_nop,
})


def _precompute_static(program: Program, index: int, instruction: Instruction):
    """Precompute everything about a static instruction that its dynamic
    instances share: decoded fields, classification flags, flat register
    indices and the dispatch handler.  Returns ``None`` for ``HALT`` (the
    run loop's stop marker).  An opcode missing from the dispatch table is
    a table bug and raises ``KeyError`` here, at decode time.
    """
    opcode = instruction.opcode
    if opcode is Opcode.HALT:
        return None
    op_cls = _CLASS_OF[opcode]
    dest = instruction.dest
    srcs = instruction.source_registers()
    derived = derive_classification(opcode, op_cls, dest, srcs)
    return (
        program.BASE_PC + index * program.BYTES_PER_OP,
        opcode,
        op_cls,
        dest,
        srcs,
        instruction.width,
        instruction.src_high8,
        instruction.imm,
        derived,
        _DISPATCH[opcode],
    )
