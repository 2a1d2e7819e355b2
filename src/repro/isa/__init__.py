"""A compact micro-op ISA used as the workload substrate of the reproduction.

The original paper evaluates register sharing on x86_64 binaries decomposed
into micro-ops by gem5.  This reproduction defines its own explicit micro-op
ISA with the properties the paper's mechanisms care about:

* 16 integer and 16 floating-point architectural registers (matching the
  x86_64 GPR / SIMD register counts used for the checkpoint storage
  comparison in Section 4.3.3);
* register-to-register moves of 64/32/16/8-bit widths plus zero-extending
  byte moves, so the Intel move-elimination eligibility rules of Section 2.1
  are meaningful;
* loads and stores with byte-accurate addresses and sizes, so
  store-to-load forwarding, partial overlaps and the Data Dependency Table
  behave as in the paper;
* conditional branches, unconditional jumps and call/return pairs so the
  TAGE branch predictor, BTB and return address stack are exercised.

Workload programs are written against :class:`~repro.isa.program.ProgramBuilder`
and executed functionally by :class:`~repro.isa.executor.Executor`, which
produces the dynamic micro-op trace (with concrete values, addresses and
branch outcomes) consumed by the cycle-level core model.
"""

from repro.isa.executor import DynamicOp, ExecutionLimitExceeded, Executor, Trace
from repro.isa.functional import FunctionalCore
from repro.isa.instructions import Instruction, MemOperand
from repro.isa.opcodes import OpClass, Opcode
from repro.isa.program import Program, ProgramBuilder
from repro.isa.registers import (
    NUM_FP_REGS,
    NUM_INT_REGS,
    ArchReg,
    RegClass,
    fp_reg,
    int_reg,
)

__all__ = [
    "ArchReg",
    "RegClass",
    "int_reg",
    "fp_reg",
    "NUM_INT_REGS",
    "NUM_FP_REGS",
    "Opcode",
    "OpClass",
    "Instruction",
    "MemOperand",
    "Program",
    "ProgramBuilder",
    "Executor",
    "FunctionalCore",
    "DynamicOp",
    "Trace",
    "ExecutionLimitExceeded",
]
