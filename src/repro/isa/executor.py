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

The ISA's semantics are written once, in the block generator of
:class:`Executor` (with the ALU expression tables beside it): recording a
trace and fast-forwarding (:mod:`repro.isa.functional`) run blocks that
one generator emits, so the two can never compute different values.
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

    Execution runs compiled *basic blocks*, the way a binary translator
    runs translation blocks.  A block starts at a static leader (index 0,
    every branch, jump and call target, every instruction after a control
    transfer) and ends at its first control transfer or at the next
    leader.  On its first visit, one generator emits the Python source of
    the whole block and it is compiled into one function that applies
    every instruction in turn and returns the next static index.  Blocks
    come in two modes, each with its own table: *recording* blocks also
    append one :class:`DynamicOp` per instruction (:meth:`run`), the
    others only retire (``FunctionalCore.fast_forward``).  A count that
    ends inside a block, or an entry at a non-leader, runs one-instruction
    blocks from the same generator until the next leader.
    """

    #: The warmer whose hooks the generated blocks call, if any;
    #: ``FunctionalCore`` attaches one.
    _warmer = None

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
        instructions = program.instructions
        self._statics = [_static_fields(program, index, instruction)
                         for index, instruction in enumerate(instructions)]
        self._derived = [None if static is None else derive_classification(*static[2:6])
                         for static in self._statics]
        limit = len(instructions)
        # leaders[i]: a block starts at i.  HALT and the end of the program
        # count as leaders too, so a block never runs into either.
        leaders = [False] * (limit + 1)
        leaders[0] = leaders[limit] = True
        for index, instruction in enumerate(instructions):
            if instruction.target is not None:
                leaders[program.target_index(instruction.target)] = True
            if instruction.opcode in _TRANSFERS:
                leaders[index + 1] = True
            elif instruction.opcode is Opcode.HALT:
                leaders[index] = True
        self._leaders = leaders
        # Indexed by ``recording``: the (size, function) of the compiled
        # block starting at each index, and the one-instruction blocks,
        # compiled on demand for counts that end inside a block and for
        # entries at non-leaders.
        self._blocks = ([_UNCOMPILED] * (limit + 1), [_UNCOMPILED] * (limit + 1))
        self._singles = ([None] * limit, [None] * limit)
        self._bindings = self._block_bindings()
        for reg, value in (initial_regs or {}).items():
            regs = self._int_regs if reg.reg_class is RegClass.INT else self._fp_regs
            regs[reg.index] = value & _MASK64
        for address, value in (initial_memory or {}).items():
            # Little endian, one byte per address.
            self._memory.update(zip(range(address, address + 8),
                                    (value & _MASK64).to_bytes(8, "little")))

    # -- architectural state accessors -------------------------------------------

    def read_reg(self, reg: ArchReg) -> int:
        """Return the current architectural value of ``reg``."""
        if reg.reg_class is RegClass.INT:
            return self._int_regs[reg.index]
        return self._fp_regs[reg.index]

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

        The one recording loop behind :meth:`run` and
        ``FunctionalCore.record``: it runs recording blocks, which append
        one micro-op per instruction, each with its position in ``trace``
        as ``seq``.  Returns ``True`` when it stopped at ``HALT``.
        ``self._index`` is left at the next instruction to execute, also
        when a block raises or the program runs off its end
        (:class:`ExecutionLimitExceeded`).
        """
        blocks = self._blocks[True]
        ops = trace.ops
        append = ops.append
        index = self._index
        recorded = len(ops)
        try:
            while recorded < count:
                size, block = blocks[index]
                if size > count - recorded:
                    size, block = self._entry(index, count - recorded, True)
                    if block is None:  # HALT
                        return True
                index = block(append, recorded)
                recorded += size
            return False
        finally:
            # A block that raised (only its closing RET can) recorded
            # every instruction before it; otherwise this adds nothing.
            self._index = index + len(ops) - recorded

    # -- the block compiler -------------------------------------------------------

    def _entry(self, index: int, left: int, recording: bool) -> tuple[int, object]:
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
            blocks = self._blocks[recording]
            entry = blocks[index]
            if entry is _UNCOMPILED:
                stop = index + 1
                while not self._leaders[stop]:
                    stop += 1
                entry = blocks[index] = (stop - index,
                                         self._compile(index, stop, recording))
            if entry[0] <= left:
                return entry
        singles = self._singles[recording]
        single = singles[index]
        if single is None:
            single = singles[index] = self._compile(index, index + 1, recording)
        return 1, single

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
            "Op": DynamicOp, "H": self._statics, "D": self._derived,
        }
        warmer = self._warmer
        if warmer is not None:
            bindings.update(
                warm_load=warmer.load, warm_store=warmer.store,
                warm_cond=warmer.cond, warm_jump=warmer.jump,
                warm_call=warmer.call, warm_ret=warmer.ret)
        return bindings

    def _compile(self, start: int, stop: int, recording: bool):
        """Compile the instructions ``[start, stop)`` into one block function.

        The block's globals are this executor's bindings, so every object
        it touches is one dictionary away and nothing but integers and the
        shared ALU expressions is ever formatted into its source.  A
        recording block takes the trace's ``append`` and the ``seq`` of its
        first micro-op.
        """
        header = "def block(append, n):\n    " if recording else "def block():\n    "
        source = header + "\n    ".join(self._block_source(start, stop, recording))
        namespace = self._bindings
        exec(compile(source, "<basic block>", "exec"), namespace)
        return namespace.pop("block")

    def _block_source(self, start: int, stop: int, recording: bool):
        """Yield the Python source lines of the block ``[start, stop)``.

        The lines apply each instruction's full architectural effect in
        program order, call the warmer's hooks (when a warmer is attached),
        append the instruction's :class:`DynamicOp` (when ``recording``)
        and end by returning the next static index.  A recorded op's static
        fields come from the ``H`` and ``D`` tables by index; only its
        dynamic fields are written out, as source text.
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
            # The recorded op's dynamic fields and, after a control
            # transfer, the block's return value.
            address = stored = target_pc = "None"
            size = 8
            next_pc = program.pc_of(nxt)
            taken = "False"
            exit_ = None

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
                address, size = "a", instruction.mem.size
                yield f"a = {_address(instruction)}"
                if warmed:
                    yield f"warm_load({pc}, a)"
                # Little endian; bytes never written read as zero.
                yield f"{dest} = get(a, 0) | " + " | ".join(
                    f"get(a + {offset}, 0) << {8 * offset}" for offset in range(1, size))
            elif opcode in (Opcode.STORE, Opcode.FSTORE):
                address, size = "a", instruction.mem.size
                stored = "v & 0xFFFFFFFF" if size == 4 else "v"
                yield f"a = {_address(instruction)}"
                if warmed:
                    yield f"warm_store({pc}, a)"
                yield f"v = {srcs[0]}"
                yield "mem[a] = v & 0xFF"
                for offset in range(1, size):
                    yield f"mem[a + {offset}] = (v >> {8 * offset}) & 0xFF"
            elif opcode in (Opcode.BNZ, Opcode.BZ):
                target = program.target_index(instruction.target)
                target_pc = program.pc_of(target)
                condition = f"{srcs[0]} {'!=' if opcode is Opcode.BNZ else '=='} 0"
                if warmed or recording:
                    yield f"taken = {condition}"
                    condition = taken = "taken"
                if warmed:
                    yield f"warm_cond({pc}, taken, {target_pc})"
                next_pc = f"{target_pc} if taken else {next_pc}"
                exit_ = f"{target} if {condition} else {nxt}"
            elif opcode in (Opcode.JMP, Opcode.CALL):
                exit_ = program.target_index(instruction.target)
                next_pc = target_pc = program.pc_of(exit_)
                taken = "True"
                if warmed:
                    kind = "jump" if opcode is Opcode.JMP else "call"
                    yield f"warm_{kind}({pc}, {target_pc})"
                if opcode is Opcode.CALL:
                    yield f"push({nxt})"
            elif opcode is Opcode.RET:
                yield "if not stack:"
                yield "    unmatched_return()"
                if warmed:
                    yield f"warm_ret({pc})"
                exit_ = "pop()"
                if recording:
                    yield f"r = {exit_}"
                    exit_, taken = "r", "True"
                    target_pc = f"{program.BASE_PC} + r * {program.BYTES_PER_OP}"
                    # A return past the last instruction keeps pc + 4.
                    next_pc = f"{target_pc} if r < {len(program)} else {pc + 4}"
            elif opcode is not Opcode.NOP:
                raise ValueError(f"no block compiler for opcode {opcode!r}")
            if recording:
                result = dest or "None"
                yield (f"append(Op(n + {index - start}, *H[{index}], {result}, "
                       f"{address}, {size}, {stored}, {next_pc}, {taken}, "
                       f"{target_pc}, *D[{index}]))")
            if exit_ is not None:
                yield f"return {exit_}"
                return
        yield f"return {stop}"


#: Value semantics of the two-source / immediate / one-source ALU
#: micro-ops, written once as Python expressions over the first source
#: ``{a}`` and the second source ``{b}`` or the immediate ``{imm}``; the
#: result is then masked to 64 bits.  The block compiler fills in the
#: operands of each static instruction.
BINARY_EXPRESSIONS = {
    Opcode.IADD: "{a} + {b}",
    Opcode.ISUB: "{a} - {b}",
    Opcode.IAND: "{a} & {b}",
    Opcode.IOR: "{a} | {b}",
    Opcode.IXOR: "{a} ^ {b}",
    Opcode.ISHL: "{a} << ({b} & 63)",
    Opcode.ISHR: "{a} >> ({b} & 63)",
    Opcode.ICMPEQ: "1 if {a} == {b} else 0",
    Opcode.ICMPLT: "1 if {a} < {b} else 0",
    Opcode.IMUL: "{a} * {b}",
    Opcode.IDIV: "{a} // {b} if {b} else 0",
    Opcode.FADD: "{a} + {b}",
    Opcode.FSUB: "{a} - {b}",
    Opcode.FMUL: "({a} * {b}) ^ (({a} * {b}) >> 17)",
    Opcode.FDIV: "({a} // {b} if {b} else 0) ^ 0x5A5A5A5A",
}

IMMEDIATE_EXPRESSIONS = {
    Opcode.IADDI: "{a} + {imm}",
    Opcode.IANDI: "{a} & {imm}",
    Opcode.ISHLI: "{a} << ({imm} & 63)",
    Opcode.ISHRI: "{a} >> ({imm} & 63)",
}

UNARY_EXPRESSIONS = {
    Opcode.I2F: "{a}",
    Opcode.F2I: "{a}",
}

#: Opcodes that end a basic block: every instruction after one is a leader.
_TRANSFERS = frozenset({Opcode.BNZ, Opcode.BZ, Opcode.JMP, Opcode.CALL, Opcode.RET})

#: The block table entry of an index with no compiled block yet (a leader
#: on its first visit, a non-leader, ``HALT`` or the end of the program):
#: it is larger than any count, so the run loops take their slow path.
_UNCOMPILED = (float("inf"), None)


def _slot(reg: ArchReg) -> str:
    """Source text of the register-file slot holding ``reg``."""
    name = "ir" if reg.reg_class is RegClass.INT else "fr"
    return f"{name}[{reg.index}]"


def _address(instruction: Instruction) -> str:
    """Source text of a memory micro-op's effective address."""
    mem = instruction.mem
    terms = [str(mem.offset)] if mem.offset else []
    if mem.base is not None:
        terms.append(_slot(mem.base))
    if mem.index is not None:
        terms.append(_slot(mem.index) if mem.scale == 1
                     else f"{_slot(mem.index)} * {mem.scale}")
    return f"({' + '.join(terms) or '0'}) & {_MASK64}"


def _static_fields(program: Program, index: int, instruction: Instruction):
    """The :class:`DynamicOp` fields ``pc`` .. ``imm`` that every dynamic
    instance of a static instruction shares, or ``None`` for ``HALT`` (the
    run loops' stop marker)."""
    opcode = instruction.opcode
    if opcode is Opcode.HALT:
        return None
    return (program.pc_of(index), index, opcode, op_class(opcode), instruction.dest,
            instruction.source_registers(), instruction.width,
            instruction.src_high8, instruction.imm)
