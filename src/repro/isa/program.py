"""Programs and a small builder DSL for writing synthetic workloads.

A :class:`Program` is an ordered list of static micro-ops plus a label table.
Workloads (see :mod:`repro.workloads`) construct programs through
:class:`ProgramBuilder`, which reads like a tiny assembler::

    b = ProgramBuilder("example")
    b.movi(r(0), 0)                      # r0 = 0
    b.label("loop")
    b.load(r(1), base=r(2), offset=0)    # r1 = mem[r2]
    b.addi(r(0), r(0), 1)
    b.cmplt(r(3), r(0), r(4))
    b.bnz(r(3), "loop")
    b.halt()
    program = b.build()

Program counters are assigned densely (4 bytes per micro-op) starting at
``Program.BASE_PC`` so branch predictors index realistic-looking addresses.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.isa.instructions import Instruction, MemOperand
from repro.isa.opcodes import Opcode
from repro.isa.registers import ArchReg


@dataclass
class Program:
    """A static micro-op program.

    Attributes
    ----------
    name:
        Human-readable workload name.
    instructions:
        Static micro-ops in program order.
    labels:
        Mapping from label name to instruction index.
    """

    BASE_PC = 0x1000
    BYTES_PER_OP = 4

    name: str
    instructions: list[Instruction] = field(default_factory=list)
    labels: dict[str, int] = field(default_factory=dict)

    def pc_of(self, index: int) -> int:
        """Program counter of the instruction at ``index``."""
        return self.BASE_PC + index * self.BYTES_PER_OP

    def target_index(self, label: str) -> int:
        """Instruction index of a label."""
        try:
            return self.labels[label]
        except KeyError as exc:
            raise KeyError(f"unknown label {label!r} in program {self.name}") from exc

    def target_pc(self, label: str) -> int:
        """Program counter of a label."""
        return self.pc_of(self.target_index(label))

    def __len__(self) -> int:
        return len(self.instructions)

    def __iter__(self):
        return iter(self.instructions)

    def validate(self) -> None:
        """Check that every branch target resolves to a label."""
        for instruction in self.instructions:
            if instruction.target is not None and instruction.target not in self.labels:
                raise ValueError(
                    f"instruction {instruction} references unknown label {instruction.target!r}"
                )

    def __repr__(self) -> str:
        return f"Program(name={self.name!r}, instructions={len(self.instructions)})"


class ProgramBuilder:
    """Fluent builder used by the synthetic workloads to assemble programs."""

    def __init__(self, name: str) -> None:
        self._name = name
        self._instructions: list[Instruction] = []
        self._labels: dict[str, int] = {}
        self._pending_label: str | None = None

    # -- structural helpers ------------------------------------------------------

    def label(self, name: str) -> "ProgramBuilder":
        """Attach ``name`` to the next emitted instruction."""
        if name in self._labels:
            raise ValueError(f"label {name!r} defined twice in program {self._name}")
        if self._pending_label is not None:
            raise ValueError(
                f"two labels ({self._pending_label!r}, {name!r}) attached to one instruction"
            )
        self._pending_label = name
        return self

    def emit(self, instruction: Instruction) -> "ProgramBuilder":
        """Append a raw instruction (applying any pending label)."""
        if self._pending_label is not None:
            self._labels[self._pending_label] = len(self._instructions)
            instruction = Instruction(
                opcode=instruction.opcode,
                dest=instruction.dest,
                srcs=instruction.srcs,
                imm=instruction.imm,
                width=instruction.width,
                src_high8=instruction.src_high8,
                mem=instruction.mem,
                target=instruction.target,
                label=self._pending_label,
                comment=instruction.comment,
            )
            self._pending_label = None
        self._instructions.append(instruction)
        return self

    def build(self) -> Program:
        """Finalise the program and validate branch targets."""
        if self._pending_label is not None:
            raise ValueError(f"dangling label {self._pending_label!r} at end of program")
        program = Program(self._name, list(self._instructions), dict(self._labels))
        program.validate()
        return program

    # -- integer ALU --------------------------------------------------------------

    def add(self, dest: ArchReg, a: ArchReg, b: ArchReg) -> "ProgramBuilder":
        """``dest = a + b``."""
        return self.emit(Instruction(Opcode.IADD, dest=dest, srcs=(a, b)))

    def sub(self, dest: ArchReg, a: ArchReg, b: ArchReg) -> "ProgramBuilder":
        """``dest = a - b``."""
        return self.emit(Instruction(Opcode.ISUB, dest=dest, srcs=(a, b)))

    def and_(self, dest: ArchReg, a: ArchReg, b: ArchReg) -> "ProgramBuilder":
        """``dest = a & b``."""
        return self.emit(Instruction(Opcode.IAND, dest=dest, srcs=(a, b)))

    def or_(self, dest: ArchReg, a: ArchReg, b: ArchReg) -> "ProgramBuilder":
        """``dest = a | b``."""
        return self.emit(Instruction(Opcode.IOR, dest=dest, srcs=(a, b)))

    def xor(self, dest: ArchReg, a: ArchReg, b: ArchReg) -> "ProgramBuilder":
        """``dest = a ^ b``."""
        return self.emit(Instruction(Opcode.IXOR, dest=dest, srcs=(a, b)))

    def shl(self, dest: ArchReg, a: ArchReg, b: ArchReg) -> "ProgramBuilder":
        """``dest = a << (b & 63)``."""
        return self.emit(Instruction(Opcode.ISHL, dest=dest, srcs=(a, b)))

    def shr(self, dest: ArchReg, a: ArchReg, b: ArchReg) -> "ProgramBuilder":
        """``dest = a >> (b & 63)``."""
        return self.emit(Instruction(Opcode.ISHR, dest=dest, srcs=(a, b)))

    def addi(self, dest: ArchReg, a: ArchReg, imm: int) -> "ProgramBuilder":
        """``dest = a + imm``."""
        return self.emit(Instruction(Opcode.IADDI, dest=dest, srcs=(a,), imm=imm))

    def andi(self, dest: ArchReg, a: ArchReg, imm: int) -> "ProgramBuilder":
        """``dest = a & imm``."""
        return self.emit(Instruction(Opcode.IANDI, dest=dest, srcs=(a,), imm=imm))

    def shli(self, dest: ArchReg, a: ArchReg, imm: int) -> "ProgramBuilder":
        """``dest = a << imm``."""
        return self.emit(Instruction(Opcode.ISHLI, dest=dest, srcs=(a,), imm=imm))

    def shri(self, dest: ArchReg, a: ArchReg, imm: int) -> "ProgramBuilder":
        """``dest = a >> imm``."""
        return self.emit(Instruction(Opcode.ISHRI, dest=dest, srcs=(a,), imm=imm))

    def cmpeq(self, dest: ArchReg, a: ArchReg, b: ArchReg) -> "ProgramBuilder":
        """``dest = 1 if a == b else 0``."""
        return self.emit(Instruction(Opcode.ICMPEQ, dest=dest, srcs=(a, b)))

    def cmplt(self, dest: ArchReg, a: ArchReg, b: ArchReg) -> "ProgramBuilder":
        """``dest = 1 if a < b else 0`` (unsigned)."""
        return self.emit(Instruction(Opcode.ICMPLT, dest=dest, srcs=(a, b)))

    def mul(self, dest: ArchReg, a: ArchReg, b: ArchReg) -> "ProgramBuilder":
        """``dest = a * b`` (long latency, non-pipelined unit)."""
        return self.emit(Instruction(Opcode.IMUL, dest=dest, srcs=(a, b)))

    def div(self, dest: ArchReg, a: ArchReg, b: ArchReg) -> "ProgramBuilder":
        """``dest = a // max(b, 1)`` (very long latency)."""
        return self.emit(Instruction(Opcode.IDIV, dest=dest, srcs=(a, b)))

    # -- moves and immediates -----------------------------------------------------

    def movi(self, dest: ArchReg, imm: int) -> "ProgramBuilder":
        """``dest = imm``."""
        return self.emit(Instruction(Opcode.MOVI, dest=dest, imm=imm))

    def mov(self, dest: ArchReg, src: ArchReg, width: int = 64) -> "ProgramBuilder":
        """Register-to-register move of the given width (64/32/16/8 bits)."""
        return self.emit(Instruction(Opcode.MOV, dest=dest, srcs=(src,), width=width))

    def movzx8(self, dest: ArchReg, src: ArchReg, src_high8: bool = False) -> "ProgramBuilder":
        """Zero-extending move of the low (or high) byte of ``src``."""
        return self.emit(
            Instruction(Opcode.MOVZX8, dest=dest, srcs=(src,), width=8, src_high8=src_high8)
        )

    def fmov(self, dest: ArchReg, src: ArchReg) -> "ProgramBuilder":
        """Floating-point register-to-register move."""
        return self.emit(Instruction(Opcode.FMOV, dest=dest, srcs=(src,)))

    # -- floating point -----------------------------------------------------------

    def fadd(self, dest: ArchReg, a: ArchReg, b: ArchReg) -> "ProgramBuilder":
        """``dest = a + b`` on floating-point registers."""
        return self.emit(Instruction(Opcode.FADD, dest=dest, srcs=(a, b)))

    def fsub(self, dest: ArchReg, a: ArchReg, b: ArchReg) -> "ProgramBuilder":
        """``dest = a - b`` on floating-point registers."""
        return self.emit(Instruction(Opcode.FSUB, dest=dest, srcs=(a, b)))

    def fmul(self, dest: ArchReg, a: ArchReg, b: ArchReg) -> "ProgramBuilder":
        """``dest = a * b`` on floating-point registers."""
        return self.emit(Instruction(Opcode.FMUL, dest=dest, srcs=(a, b)))

    def fdiv(self, dest: ArchReg, a: ArchReg, b: ArchReg) -> "ProgramBuilder":
        """``dest = a / b`` on floating-point registers."""
        return self.emit(Instruction(Opcode.FDIV, dest=dest, srcs=(a, b)))

    def i2f(self, dest: ArchReg, src: ArchReg) -> "ProgramBuilder":
        """Move an integer register value into a floating-point register."""
        return self.emit(Instruction(Opcode.I2F, dest=dest, srcs=(src,)))

    def f2i(self, dest: ArchReg, src: ArchReg) -> "ProgramBuilder":
        """Move a floating-point register value into an integer register."""
        return self.emit(Instruction(Opcode.F2I, dest=dest, srcs=(src,)))

    # -- memory -------------------------------------------------------------------

    def load(self, dest: ArchReg, base: ArchReg | None = None, offset: int = 0,
             index: ArchReg | None = None, scale: int = 1, size: int = 8) -> "ProgramBuilder":
        """Integer load: ``dest = mem[base + index*scale + offset]``."""
        mem = MemOperand(base=base, index=index, scale=scale, offset=offset, size=size)
        return self.emit(Instruction(Opcode.LOAD, dest=dest, mem=mem))

    def store(self, src: ArchReg, base: ArchReg | None = None, offset: int = 0,
              index: ArchReg | None = None, scale: int = 1, size: int = 8) -> "ProgramBuilder":
        """Integer store: ``mem[base + index*scale + offset] = src``."""
        mem = MemOperand(base=base, index=index, scale=scale, offset=offset, size=size)
        return self.emit(Instruction(Opcode.STORE, srcs=(src,), mem=mem))

    def fload(self, dest: ArchReg, base: ArchReg | None = None, offset: int = 0,
              index: ArchReg | None = None, scale: int = 1, size: int = 8) -> "ProgramBuilder":
        """Floating-point load."""
        mem = MemOperand(base=base, index=index, scale=scale, offset=offset, size=size)
        return self.emit(Instruction(Opcode.FLOAD, dest=dest, mem=mem))

    def fstore(self, src: ArchReg, base: ArchReg | None = None, offset: int = 0,
               index: ArchReg | None = None, scale: int = 1, size: int = 8) -> "ProgramBuilder":
        """Floating-point store."""
        mem = MemOperand(base=base, index=index, scale=scale, offset=offset, size=size)
        return self.emit(Instruction(Opcode.FSTORE, srcs=(src,), mem=mem))

    # -- control flow -------------------------------------------------------------

    def bnz(self, src: ArchReg, target: str) -> "ProgramBuilder":
        """Branch to ``target`` when ``src != 0``."""
        return self.emit(Instruction(Opcode.BNZ, srcs=(src,), target=target))

    def bz(self, src: ArchReg, target: str) -> "ProgramBuilder":
        """Branch to ``target`` when ``src == 0``."""
        return self.emit(Instruction(Opcode.BZ, srcs=(src,), target=target))

    def jmp(self, target: str) -> "ProgramBuilder":
        """Unconditional jump."""
        return self.emit(Instruction(Opcode.JMP, target=target))

    def call(self, target: str) -> "ProgramBuilder":
        """Direct call (return address is kept on the executor's shadow stack)."""
        return self.emit(Instruction(Opcode.CALL, target=target))

    def ret(self) -> "ProgramBuilder":
        """Return to the most recent unmatched call."""
        return self.emit(Instruction(Opcode.RET))

    def nop(self) -> "ProgramBuilder":
        """No operation."""
        return self.emit(Instruction(Opcode.NOP))

    def halt(self) -> "ProgramBuilder":
        """Terminate the program."""
        return self.emit(Instruction(Opcode.HALT))
