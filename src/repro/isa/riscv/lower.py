"""Lowering: RV32I instructions -> the existing micro-op stream.

Each decoded RV32I instruction is *cracked* into a short, deterministic
sequence of micro-ops (the CISC-decode analog), so the functional core,
the detailed core, the sampling planner and every tracker scheme run real
programs completely unchanged.

Register mapping
----------------
The micro-op ISA has 16 integer architectural registers -- pinned by the
paper's x86_64 checkpoint-size argument (Section 4.3.3) and therefore not
negotiable -- while RV32I has 32.  The lowering maps:

* ``x0``       -> ``r0``, kept permanently zero (never written; writes to
  ``x0`` compute into a scratch so side effects such as loads still occur),
* ``x1..x12``  -> ``r1..r12`` directly (covers ra/sp/gp/tp/t0-t2/s0-s1/a0-a2),
* ``x13..x31`` -> a memory-resident *register bank* at :data:`REG_BANK_BASE`
  (one 4-byte slot per register, far above the 32-bit address space), read
  and written through absolute memory operands,
* ``r13/r14/r15`` are lowering scratch registers.

Spilling the upper registers to memory is exactly what an x86_64 compiler
does with RV32's extra registers, so the resulting micro-op mix (extra
loads/stores around high-register pressure) is the realistic one.

Value invariant
---------------
Micro-op registers are 64-bit; lowered code maintains the invariant that
every register and register-bank slot holds a *32-bit-clean* value (upper
32 bits zero).  Operations that can carry into bit 32 (add/sub/shift-left,
sign-extensions) are followed by an ``IANDI 0xFFFFFFFF``.  Signed compares
xor both operands with ``0x8000_0000`` and compare unsigned; ``sra`` widens
to a signed 64-bit value, shifts, and re-masks.

Control flow
------------
Every RV32I pc gets a label on its first micro-op.  Branches compare into a
scratch and emit ``BNZ``/``BZ``; ``jal`` becomes ``JMP`` (rd = x0) or a
link-register write plus ``CALL``; ``jalr x0, 0(rs1)`` (any rs1) becomes
``RET`` -- returns must dynamically match calls, which holds for compiled
call/return code.  Other ``jalr`` forms are *indirect* jumps, which the
micro-op ISA does not model: they raise :class:`LoweringError`.

``ecall``/``ebreak`` lower to ``HALT`` (the syscall-lite exit convention);
``fence``/``fence.i`` lower to ``NOP``; undecodable words lower to ``HALT``
so data interleaved with text is tolerated as long as it is never reached.
Branch targets outside the text segment resolve to a trailing ``HALT``.
"""

from __future__ import annotations

from pathlib import Path

from repro.isa.program import Program, ProgramBuilder
from repro.isa.registers import ArchReg, int_reg
from repro.isa.riscv.decoder import DecodedInsn, decode_all
from repro.isa.riscv.loader import LoadedBinary, load_binary

__all__ = ["LoweringError", "REG_BANK_BASE", "STACK_TOP", "lower", "lower_image"]

#: Base address of the x13..x31 register bank (far outside the 32-bit space
#: an RV32I program can address, so no program access can alias it).
REG_BANK_BASE = 0x100_0000_0000

#: Default initial stack pointer (grows down; far above typical load bases).
STACK_TOP = 0x0040_0000

_MASK32 = 0xFFFFFFFF
_SIGN32 = 0x8000_0000
_DIRECT_LIMIT = 13  # x1..x12 map to r1..r12

_ZERO = int_reg(0)
_S0, _S1, _S2 = int_reg(13), int_reg(14), int_reg(15)


class LoweringError(ValueError):
    """Raised when a decoded program cannot be expressed in micro-ops."""


def _bank_slot(xreg: int) -> int:
    return REG_BANK_BASE + 4 * xreg


def _pc_label(pc: int) -> str:
    return f"L{pc:08x}"


_EXIT_LABEL = "__exit"


class _Lowerer:
    """Lowers one decoded text segment into a micro-op program."""

    def __init__(self, binary: LoadedBinary, name: str) -> None:
        self.binary = binary
        self.b = ProgramBuilder(name)
        self.decoded = decode_all(binary.text)
        self.text_end = binary.text_base + 4 * len(self.decoded)

    # -- register plumbing -----------------------------------------------------

    def _read(self, xreg: int, scratch: ArchReg) -> ArchReg:
        """Return a micro-op register holding ``x<xreg>`` (may load a bank slot)."""
        if xreg == 0:
            return _ZERO
        if xreg < _DIRECT_LIMIT:
            return int_reg(xreg)
        self.b.load(scratch, offset=_bank_slot(xreg), size=4)
        return scratch

    def _dest(self, xreg: int) -> ArchReg:
        """The register a result for ``x<xreg>`` should be computed into."""
        if xreg == 0:
            return _S2  # computed then discarded: x0 stays zero
        if xreg < _DIRECT_LIMIT:
            return int_reg(xreg)
        return _S2

    def _write_back(self, xreg: int, reg: ArchReg) -> None:
        if xreg >= _DIRECT_LIMIT:
            self.b.store(reg, offset=_bank_slot(xreg), size=4)

    def _mask32(self, reg: ArchReg) -> None:
        self.b.andi(reg, reg, _MASK32)

    # -- addressing ------------------------------------------------------------

    def _address(self, rs1: int, imm: int) -> ArchReg:
        """Materialise ``(x<rs1> + imm) mod 2**32`` for a memory operand."""
        base = self._read(rs1, _S0)
        if imm == 0:
            return base
        self.b.addi(_S0, base, imm)
        self.b.andi(_S0, _S0, _MASK32)
        return _S0

    def _target_label(self, pc: int, offset: int) -> str:
        target = (pc + offset) & _MASK32
        if target % 4 == 0 and self.binary.text_base <= target < self.text_end:
            return _pc_label(target)
        return _EXIT_LABEL

    # -- per-format lowering ---------------------------------------------------

    def _lower_r_type(self, insn: DecodedInsn) -> None:
        b = self.b
        a = self._read(insn.rs1, _S0)
        c = self._read(insn.rs2, _S1)
        d = self._dest(insn.rd)
        m = insn.mnemonic
        if m == "add":
            b.add(d, a, c)
            self._mask32(d)
        elif m == "sub":
            b.sub(d, a, c)
            self._mask32(d)
        elif m == "xor":
            b.xor(d, a, c)
        elif m == "or":
            b.or_(d, a, c)
        elif m == "and":
            b.and_(d, a, c)
        elif m == "sltu":
            b.cmplt(d, a, c)
        elif m == "slt":
            b.movi(_S2, _SIGN32)
            b.xor(_S0, a, _S2)
            b.xor(_S1, c, _S2)
            b.cmplt(d, _S0, _S1)
        elif m == "sll":
            b.andi(_S1, c, 31)
            b.shl(d, a, _S1)
            self._mask32(d)
        elif m == "srl":
            b.andi(_S1, c, 31)
            b.shr(d, a, _S1)
        elif m == "sra":
            b.andi(_S1, c, 31)
            b.movi(_S2, _SIGN32)
            b.xor(_S0, a, _S2)
            b.sub(_S0, _S0, _S2)   # now a sign-extended 64-bit value
            b.shr(_S0, _S0, _S1)
            b.andi(d, _S0, _MASK32)
        else:  # pragma: no cover - decoder emits only the table above
            raise LoweringError(f"unhandled R-type {m}")
        self._write_back(insn.rd, d)

    def _lower_i_alu(self, insn: DecodedInsn) -> None:
        b = self.b
        m, imm = insn.mnemonic, insn.imm
        if m == "addi" and insn.rd == 0 and insn.rs1 == 0:
            b.nop()  # canonical nop (and any addi x0, x0, imm)
            return
        a = self._read(insn.rs1, _S0)
        d = self._dest(insn.rd)
        if m == "addi":
            if insn.rs1 == 0:
                b.movi(d, imm & _MASK32)
            elif imm == 0:
                # Canonical `mv rd, rs`: a full-width move, eligible for move
                # elimination -- this is what makes the tracker-scheme
                # comparison meaningful on compiled code.
                b.mov(d, a)
            else:
                b.addi(d, a, imm)
                self._mask32(d)
        elif m == "andi":
            b.andi(d, a, imm & _MASK32)
        elif m == "xori":
            b.movi(_S1, imm & _MASK32)
            b.xor(d, a, _S1)
        elif m == "ori":
            b.movi(_S1, imm & _MASK32)
            b.or_(d, a, _S1)
        elif m == "sltiu":
            b.movi(_S1, imm & _MASK32)
            b.cmplt(d, a, _S1)
        elif m == "slti":
            b.movi(_S1, _SIGN32)
            b.xor(_S1, a, _S1)
            b.movi(_S2, (imm & _MASK32) ^ _SIGN32)
            b.cmplt(d, _S1, _S2)
        elif m == "slli":
            b.shli(d, a, imm)
            self._mask32(d)
        elif m == "srli":
            b.shri(d, a, imm)
        elif m == "srai":
            b.movi(_S1, _SIGN32)
            b.xor(_S2, a, _S1)
            b.sub(_S2, _S2, _S1)
            b.shri(_S2, _S2, imm)
            b.andi(d, _S2, _MASK32)
        else:  # pragma: no cover
            raise LoweringError(f"unhandled I-type {m}")
        self._write_back(insn.rd, d)

    _LOAD_SPECS = {"lw": (4, None, None), "lbu": (4, 0xFF, None),
                   "lhu": (4, 0xFFFF, None), "lb": (4, 0xFF, 0x80),
                   "lh": (4, 0xFFFF, 0x8000)}

    def _lower_load(self, insn: DecodedInsn) -> None:
        b = self.b
        addr = self._address(insn.rs1, insn.imm)
        d = self._dest(insn.rd)
        _size, mask, sign_bit = self._LOAD_SPECS[insn.mnemonic]
        if mask is None:
            b.load(d, base=addr, size=4)
        elif sign_bit is None:
            b.load(_S1, base=addr, size=4)
            b.andi(d, _S1, mask)
        else:
            b.load(_S1, base=addr, size=4)
            b.andi(_S1, _S1, mask)
            b.movi(_S2, sign_bit)
            b.xor(_S1, _S1, _S2)
            b.sub(_S1, _S1, _S2)
            b.andi(d, _S1, _MASK32)
        self._write_back(insn.rd, d)

    _STORE_MASKS = {"sb": (0xFFFFFF00, 0xFF), "sh": (0xFFFF0000, 0xFFFF)}

    def _lower_store(self, insn: DecodedInsn) -> None:
        b = self.b
        addr = self._address(insn.rs1, insn.imm)
        value = self._read(insn.rs2, _S1)
        if insn.mnemonic == "sw":
            b.store(value, base=addr, size=4)
            return
        # Sub-word store: read-modify-write of the containing word.  Both
        # execution paths crack it the same way, so digests stay identical.
        keep_mask, value_mask = self._STORE_MASKS[insn.mnemonic]
        b.load(_S2, base=addr, size=4)
        b.andi(_S2, _S2, keep_mask)
        b.andi(_S1, value, value_mask)
        b.or_(_S2, _S2, _S1)
        b.store(_S2, base=addr, size=4)

    def _lower_branch(self, insn: DecodedInsn, pc: int) -> None:
        b = self.b
        target = self._target_label(pc, insn.imm)
        a = self._read(insn.rs1, _S0)
        c = self._read(insn.rs2, _S1)
        m = insn.mnemonic
        if m in ("blt", "bge"):
            b.movi(_S2, _SIGN32)
            b.xor(_S0, a, _S2)
            b.xor(_S1, c, _S2)
            b.cmplt(_S2, _S0, _S1)
        elif m in ("bltu", "bgeu"):
            b.cmplt(_S2, a, c)
        else:  # beq / bne
            b.cmpeq(_S2, a, c)
        if m in ("beq", "blt", "bltu"):
            b.bnz(_S2, target)
        else:
            b.bz(_S2, target)

    def _lower_jal(self, insn: DecodedInsn, pc: int) -> None:
        target = self._target_label(pc, insn.imm)
        if insn.rd == 0:
            self.b.jmp(target)
            return
        d = self._dest(insn.rd)
        self.b.movi(d, (pc + 4) & _MASK32)
        self._write_back(insn.rd, d)
        self.b.call(target)

    def _lower_jalr(self, insn: DecodedInsn, pc: int) -> None:
        if insn.rd == 0 and insn.imm == 0:
            # `jalr x0, 0(rs1)` for any rs1: a return.  Correct whenever
            # returns dynamically match calls (true for compiled code).
            self.b.ret()
            return
        raise LoweringError(
            f"pc {pc:#x}: {insn} is an indirect jump; the micro-op ISA has no "
            f"indirect control flow (supported: jal, and jalr x0, 0(rs) as a "
            f"return)")

    # -- driver ----------------------------------------------------------------

    def _lower_one(self, insn: DecodedInsn | None, pc: int) -> None:
        self.b.label(_pc_label(pc))
        if insn is None:
            self.b.halt()  # data or undecodable word: stop if ever reached
            return
        m = insn.mnemonic
        if insn.fmt == "R":
            self._lower_r_type(insn)
        elif m in self._LOAD_SPECS:
            self._lower_load(insn)
        elif insn.fmt == "S":
            self._lower_store(insn)
        elif insn.fmt == "B":
            self._lower_branch(insn, pc)
        elif m == "jal":
            self._lower_jal(insn, pc)
        elif m == "jalr":
            self._lower_jalr(insn, pc)
        elif m in ("lui", "auipc"):
            value = insn.imm if m == "lui" else (pc + insn.imm) & _MASK32
            d = self._dest(insn.rd)
            self.b.movi(d, value)
            self._write_back(insn.rd, d)
        elif m in ("ecall", "ebreak"):
            self.b.halt()
        elif m in ("fence", "fence.i"):
            self.b.nop()
        else:
            self._lower_i_alu(insn)

    def lower(self) -> Program:
        entry = self.binary.entry
        if entry != self.binary.text_base:
            self.b.jmp(_pc_label(entry))
        for index, insn in enumerate(self.decoded):
            self._lower_one(insn, self.binary.text_base + 4 * index)
        self.b.label(_EXIT_LABEL)
        self.b.halt()  # falling off the end (or leaving text) exits cleanly
        return self.b.build()


def lower(binary: LoadedBinary, name: str = "riscv") -> Program:
    """Lower a loaded RV32I binary into a micro-op :class:`Program`."""
    return _Lowerer(binary, name).lower()


def _word_image(byte_image: dict[int, int]) -> dict[int, int]:
    """Fold a byte image into the 8-byte-word image WorkloadImage expects."""
    words: dict[int, int] = {}
    for address, byte in byte_image.items():
        base = address & ~0x7
        words[base] = words.get(base, 0) | (byte & 0xFF) << (8 * (address - base))
    return words


def lower_image(source: str | Path | bytes, name: str = "riscv",
                base: int = 0x1000, stack_top: int = STACK_TOP):
    """Load, decode and lower an RV32I binary into a runnable workload image.

    The memory image contains every loaded segment byte (so absolute data
    references into .text/.rodata read the original bytes) and ``sp`` (x2)
    starts at ``stack_top``.  Returns a
    :class:`~repro.workloads.base.WorkloadImage`.
    """
    # Imported lazily: repro.workloads registers the riscv workload family,
    # which imports this module -- a top-level import would be circular.
    from repro.workloads.base import WorkloadImage

    binary = load_binary(source, base=base)
    program = lower(binary, name=name)
    return WorkloadImage(
        program=program,
        initial_regs={int_reg(2): stack_top},
        initial_memory=_word_image(binary.memory),
    )
