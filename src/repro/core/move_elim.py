"""Move elimination eligibility rules and bookkeeping (Section 2).

Move elimination maps the destination architectural register of a
register-to-register move onto the physical register of its source at
rename time, so the move never occupies a scheduler entry or an ALU.  On
x86_64 not every move is eligible (Section 2.1, following Intel's
optimisation manual):

* 64-bit and 32-bit register-to-register moves can be eliminated (a 32-bit
  move zeroes the upper half of the destination);
* 16-bit and 8-bit moves are *merge* micro-ops -- they preserve the upper
  bits of the destination -- and cannot be eliminated;
* zero-extending byte moves can be eliminated unless the source is the
  high byte of a 16-bit register (``AH``-style);
* the paper's evaluation only eliminates integer moves; recent Intel parts
  also eliminate SIMD moves, which the policy can optionally allow.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.isa.executor import DynamicOp
from repro.isa.opcodes import Opcode
from repro.isa.registers import RegClass


@dataclass(frozen=True)
class MoveEliminationPolicy:
    """Which moves are candidates for elimination.

    Attributes
    ----------
    enabled:
        Master switch; when ``False`` no move is ever a candidate.
    integer_moves:
        Eliminate 64/32-bit integer register moves (the paper's setting).
    zero_extend_moves:
        Eliminate zero-extending byte moves whose source is a low byte.
    fp_moves:
        Eliminate floating-point register moves (disabled in the paper's
        evaluation, available on recent Intel microarchitectures).
    """

    enabled: bool = True
    integer_moves: bool = True
    zero_extend_moves: bool = True
    fp_moves: bool = False

    def is_candidate(self, op: DynamicOp) -> bool:
        """Return ``True`` when ``op`` is a move that the policy may eliminate."""
        if not self.enabled or not op.is_move:
            return False
        if op.dest is None or not op.srcs:
            return False
        source = op.srcs[0]
        if op.dest == source:
            # A self-move carries no new mapping; let it execute normally.
            return False
        if op.opcode is Opcode.FMOV:
            return self.fp_moves and op.dest.reg_class is RegClass.FP
        if op.opcode is Opcode.MOVZX8:
            # Zero-extension overwrites the full destination, so it is
            # eliminable -- unless it reads the high byte of its source.
            return self.zero_extend_moves and not op.src_high8
        if op.opcode is Opcode.MOV:
            if not self.integer_moves:
                return False
            # 16- and 8-bit moves merge into the old destination value.
            return op.width in (64, 32)
        return False


@dataclass
class MoveEliminationStats:
    """Counters reported by Figure 5 (a/b)."""

    candidates: int = 0
    eliminated: int = 0
    rejected_by_tracker: int = 0
    renamed_instructions: int = 0

    def elimination_rate(self) -> float:
        """Fraction of *renamed* instructions that were eliminated (Figure 5b metric)."""
        if not self.renamed_instructions:
            return 0.0
        return self.eliminated / self.renamed_instructions

    def as_dict(self) -> dict[str, float]:
        """Return the statistics as a plain dictionary."""
        return {
            "move_candidates": self.candidates,
            "moves_eliminated": self.eliminated,
            "moves_rejected_by_tracker": self.rejected_by_tracker,
            "elimination_rate": self.elimination_rate(),
        }
