"""Micro-op opcodes and their execution classes.

Each opcode belongs to an :class:`OpClass` that the back-end maps onto a
functional-unit pool and an execution latency (Table 1 of the paper: four
1-cycle ALUs, one non-pipelined integer multiplier/divider, two 3-cycle FP
units, two FP multiply/divide units, two load ports and one store port).
"""

from __future__ import annotations

import enum


class Opcode(enum.Enum):
    """Every micro-op the synthetic ISA can express."""

    # Integer ALU operations (dest, src_a, src_b).
    IADD = "iadd"
    ISUB = "isub"
    IAND = "iand"
    IOR = "ior"
    IXOR = "ixor"
    ISHL = "ishl"
    ISHR = "ishr"
    # Integer ALU operations with an immediate (dest, src_a, imm).
    IADDI = "iaddi"
    IANDI = "iandi"
    ISHLI = "ishli"
    ISHRI = "ishri"
    # Comparisons producing 0/1 (dest, src_a, src_b).
    ICMPEQ = "icmpeq"
    ICMPLT = "icmplt"
    # Long-latency integer operations.
    IMUL = "imul"
    IDIV = "idiv"
    # Register-to-register moves (dest, src).  ``width`` selects 64/32/16/8.
    MOV = "mov"
    MOVZX8 = "movzx8"
    # Load an immediate into a register (dest, imm).
    MOVI = "movi"
    # Floating-point operations (dest, src_a, src_b) on FP registers.
    FADD = "fadd"
    FSUB = "fsub"
    FMUL = "fmul"
    FDIV = "fdiv"
    # Floating-point register-to-register move (dest, src).
    FMOV = "fmov"
    # Conversions between register classes (dest, src).
    I2F = "i2f"
    F2I = "f2i"
    # Memory operations.  Addresses are ``base + offset`` (+ ``index`` register).
    LOAD = "load"
    STORE = "store"
    FLOAD = "fload"
    FSTORE = "fstore"
    # Control flow.
    BNZ = "bnz"    # branch to target if src != 0
    BZ = "bz"      # branch to target if src == 0
    JMP = "jmp"    # unconditional direct jump
    CALL = "call"  # direct call (pushes return address on the shadow stack)
    RET = "ret"    # return (pops the shadow stack)
    # No operation / end of program.
    NOP = "nop"
    HALT = "halt"


class OpClass(enum.Enum):
    """Functional-unit class of a micro-op."""

    INT_ALU = "int_alu"
    INT_MUL = "int_mul"
    INT_DIV = "int_div"
    INT_MOVE = "int_move"
    FP_ALU = "fp_alu"
    FP_MULDIV = "fp_muldiv"
    FP_MOVE = "fp_move"
    LOAD = "load"
    STORE = "store"
    BRANCH = "branch"
    NOP = "nop"


_OPCLASS: dict[Opcode, OpClass] = {
    Opcode.IADD: OpClass.INT_ALU,
    Opcode.ISUB: OpClass.INT_ALU,
    Opcode.IAND: OpClass.INT_ALU,
    Opcode.IOR: OpClass.INT_ALU,
    Opcode.IXOR: OpClass.INT_ALU,
    Opcode.ISHL: OpClass.INT_ALU,
    Opcode.ISHR: OpClass.INT_ALU,
    Opcode.IADDI: OpClass.INT_ALU,
    Opcode.IANDI: OpClass.INT_ALU,
    Opcode.ISHLI: OpClass.INT_ALU,
    Opcode.ISHRI: OpClass.INT_ALU,
    Opcode.ICMPEQ: OpClass.INT_ALU,
    Opcode.ICMPLT: OpClass.INT_ALU,
    Opcode.IMUL: OpClass.INT_MUL,
    Opcode.IDIV: OpClass.INT_DIV,
    Opcode.MOV: OpClass.INT_MOVE,
    Opcode.MOVZX8: OpClass.INT_MOVE,
    Opcode.MOVI: OpClass.INT_ALU,
    Opcode.FADD: OpClass.FP_ALU,
    Opcode.FSUB: OpClass.FP_ALU,
    Opcode.FMUL: OpClass.FP_MULDIV,
    Opcode.FDIV: OpClass.FP_MULDIV,
    Opcode.FMOV: OpClass.FP_MOVE,
    Opcode.I2F: OpClass.FP_ALU,
    Opcode.F2I: OpClass.INT_ALU,
    Opcode.LOAD: OpClass.LOAD,
    Opcode.FLOAD: OpClass.LOAD,
    Opcode.STORE: OpClass.STORE,
    Opcode.FSTORE: OpClass.STORE,
    Opcode.BNZ: OpClass.BRANCH,
    Opcode.BZ: OpClass.BRANCH,
    Opcode.JMP: OpClass.BRANCH,
    Opcode.CALL: OpClass.BRANCH,
    Opcode.RET: OpClass.BRANCH,
    Opcode.NOP: OpClass.NOP,
    Opcode.HALT: OpClass.NOP,
}

#: Conditional branch opcodes (their direction depends on a register value).
CONDITIONAL_BRANCHES = frozenset({Opcode.BNZ, Opcode.BZ})

#: Register-to-register move opcodes (the move-elimination candidates).
MOVE_OPCODES = frozenset({Opcode.MOV, Opcode.MOVZX8, Opcode.FMOV})


def op_class(opcode: Opcode) -> OpClass:
    """Return the functional-unit class of ``opcode``."""
    return _OPCLASS[opcode]


def is_load(opcode: Opcode) -> bool:
    """Return ``True`` for load micro-ops."""
    return opcode in (Opcode.LOAD, Opcode.FLOAD)


def is_store(opcode: Opcode) -> bool:
    """Return ``True`` for store micro-ops."""
    return opcode in (Opcode.STORE, Opcode.FSTORE)


def is_branch(opcode: Opcode) -> bool:
    """Return ``True`` for control-flow micro-ops."""
    return _OPCLASS[opcode] is OpClass.BRANCH


def is_conditional_branch(opcode: Opcode) -> bool:
    """Return ``True`` for conditional branches."""
    return opcode in CONDITIONAL_BRANCHES


def is_move(opcode: Opcode) -> bool:
    """Return ``True`` for register-to-register move micro-ops."""
    return opcode in MOVE_OPCODES
