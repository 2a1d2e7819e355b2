"""Per-instruction pipeline state.

An :class:`InflightOp` wraps one dynamic micro-op from fetch until it
commits (and, under lazy register reclaiming, until its ROB entry is
released).  It carries the renaming outcome, scheduling state and all the
flags the commit stage needs (memory-order violation, bypass validation
result, ...).
"""

from __future__ import annotations

from repro.core.distance import DistancePrediction
from repro.isa.executor import DynamicOp
from repro.rename.renamer import ProducerInfo


class InflightOp:
    """One micro-op travelling through the pipeline."""

    __slots__ = (
        "op", "seq", "fetch_cycle", "rename_cycle", "history", "path",
        "is_load", "is_store", "is_branch", "mem_addr", "mem_size",
        "predicted_taken", "branch_mispredicted",
        "src_pregs", "dest_preg", "old_preg", "allocated", "eliminated", "bypassed",
        "share_recorded", "bypass_producer", "bypass_value_matches", "smb_prediction",
        "store_set_wait_seq", "false_dependency", "stlf_forwarded",
        "needs_execution", "issued", "issue_cycle", "completed", "complete_cycle",
        "fu_pool", "exec_latency", "wait_count",
        "violation", "committed", "commit_cycle", "released",
    )

    def __init__(self, op: DynamicOp, fetch_cycle: int, history: int, path: int) -> None:
        self.op = op
        self.seq = op.seq
        self.fetch_cycle = fetch_cycle
        self.rename_cycle = -1
        self.history = history
        self.path = path
        # Classification and memory footprint, copied from the dynamic op so
        # the scheduler and LSQ never chase ``self.op`` on their hot loops.
        self.is_load = op.is_load
        self.is_store = op.is_store
        self.is_branch = op.is_branch
        self.mem_addr = op.mem_addr
        self.mem_size = op.mem_size
        self.predicted_taken: bool | None = None
        self.branch_mispredicted = False
        # Renaming outcome.
        self.src_pregs: tuple[int, ...] = ()
        self.dest_preg: int | None = None
        self.old_preg: int | None = None
        self.allocated = False
        self.eliminated = False
        self.bypassed = False
        self.share_recorded = False
        self.bypass_producer: ProducerInfo | None = None
        self.bypass_value_matches = True
        self.smb_prediction: DistancePrediction | None = None
        # Memory dependence state.
        self.store_set_wait_seq: int | None = None
        self.false_dependency = False
        self.stlf_forwarded = False
        # Scheduling state.
        self.needs_execution = True
        self.issued = False
        self.issue_cycle = -1
        self.completed = False
        self.complete_cycle = -1
        # Precomputed at dispatch: the functional unit pool this op executes
        # on and (for non-memory ops) its fixed execution latency.
        self.fu_pool = None
        self.exec_latency = 0
        # Number of source registers still waiting for a producer writeback
        # (maintained by the core's event-driven wakeup lists).
        self.wait_count = 0
        # Commit state.
        self.violation = False
        self.committed = False
        self.commit_cycle = -1
        self.released = False

    # -- convenience views --------------------------------------------------------

    @property
    def shared(self) -> bool:
        """``True`` when the destination mapping references a shared register."""
        return self.eliminated or self.bypassed

    def __repr__(self) -> str:
        return (f"InflightOp(seq={self.seq}, {self.op.opcode.value}, "
                f"issued={self.issued}, completed={self.completed})")
