"""Architectural registers of the synthetic micro-op ISA.

The register file mirrors x86_64's split between 16 general purpose integer
registers and 16 SIMD/floating-point registers.  The paper's checkpoint
storage comparison ("saving the x86_64 Rename Map requires at least 256 bits:
(16 GPRs + 16 SIMD registers) x 8-bit identifiers", Section 4.3.3) relies on
exactly these counts, so the reproduction keeps them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

NUM_INT_REGS = 16
NUM_FP_REGS = 16


class RegClass(enum.Enum):
    """Architectural register class."""

    INT = "int"
    FP = "fp"


@dataclass(frozen=True, order=True)
class ArchReg:
    """An architectural register: a class plus an index within the class."""

    reg_class: RegClass
    index: int

    def __post_init__(self) -> None:
        limit = NUM_INT_REGS if self.reg_class is RegClass.INT else NUM_FP_REGS
        if not 0 <= self.index < limit:
            raise ValueError(
                f"{self.reg_class.value} register index {self.index} out of range [0, {limit})"
            )

    @property
    def flat_index(self) -> int:
        """Index in the flattened architectural register space (INT first)."""
        if self.reg_class is RegClass.INT:
            return self.index
        return NUM_INT_REGS + self.index

    @property
    def name(self) -> str:
        """A readable register name (``r3``, ``f7``)."""
        prefix = "r" if self.reg_class is RegClass.INT else "f"
        return f"{prefix}{self.index}"

    def __repr__(self) -> str:
        return self.name


def int_reg(index: int) -> ArchReg:
    """Return the integer architectural register with the given index."""
    return ArchReg(RegClass.INT, index)


def fp_reg(index: int) -> ArchReg:
    """Return the floating-point architectural register with the given index."""
    return ArchReg(RegClass.FP, index)

