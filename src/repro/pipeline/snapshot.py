"""Micro-architectural snapshots of the cycle-level core.

A :class:`CoreSnapshot` captures every piece of core state that must
survive a functional fast-forward gap between two detailed simulation
windows (the two-speed engine of :mod:`repro.pipeline.sampling`):

* front end: TAGE branch predictor, BTB, RAS, global branch history and
  path history;
* rename: speculative/commit rename maps (equal with the pipeline drained,
  so a single image is stored) and both free lists, including the exact
  speculative allocation order;
* the register-sharing tracker, whose deferred reclaims must not leak
  physical registers across the gap;
* memory: Store Sets SSIT, L1I/L1D/L2 tags + LRU + dirty bits, DRAM open
  rows and bank-busy deltas, prefetcher training state;
* SMB: the Instruction Distance predictor, the Data Dependency Table and
  the commit-side CSN table, plus the running commit sequence number so
  CSNs stay monotonic across windows.

A sampled run chains one capture per stretch boundary,
``Core.snapshot(warm)``: the BTB, RAS, history and path registers and the
L1D, L2, prefetcher and DRAM open-row images are taken as they are from
the plan's functionally warmed image (a
:class:`~repro.pipeline.sampling.WarmState`), and only the scheme-local
rest -- TAGE, rename state, tracker, Store Sets, SMB, the commit sequence
base, the L1I and the outstanding-miss and bank-busy deltas -- is captured
from the core.  ``Core.snapshot()`` captures everything; the digest tests
compare against it.

Snapshot invariants (enforced by :meth:`repro.pipeline.core.Core.snapshot`
and documented in DESIGN.md):

* the pipeline is **drained** -- no in-flight instruction, so transient
  structures (ROB, IQ, LSQ, front-end queue, writeback wheel, functional
  unit reservations, Store Sets LFST, SMB blacklist) are empty or
  meaningless and are not captured;
* deferred lazy reclaims are **completed first** -- any committed entry
  still retained in the ROB has its overwritten mapping reclaimed before
  the state is read, so register liveness never rides on a structure the
  snapshot does not carry;
* all cycle-stamped state is stored **relative to the snapshot cycle** and
  rebased to zero on restore;
* statistics are per-window and never part of a snapshot.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class CoreSnapshot:
    """Serialised warm state of a drained :class:`~repro.pipeline.core.Core`."""

    # Compatibility fingerprint: a snapshot may only be restored into a
    # core with the same machine structure.
    variant: str
    num_int_pregs: int
    num_fp_pregs: int
    #: Committed micro-ops so far across all detailed windows; the next
    #: window's commit sequence numbers continue from here.
    next_csn: int
    branch_predictor: dict
    btb: list
    ras: list
    history: int
    path: int
    rename_map: list
    int_free: dict
    fp_free: dict
    tracker: dict
    store_sets: dict
    memory: dict
    smb: dict

    def digest(self) -> str:
        """Deterministic SHA-256 digest of the full snapshot contents.

        Used by the property tests: resuming from a restored snapshot must
        leave a core in a state whose digest is identical to the core the
        snapshot was taken from continuing directly.
        """
        payload = json.dumps(asdict(self), sort_keys=True).encode()
        return hashlib.sha256(payload).hexdigest()

    def compatible_with(self, config) -> bool:
        """``True`` when this snapshot can be restored into ``config``'s machine."""
        return (self.variant == config.variant_name()
                and self.num_int_pregs == config.num_int_pregs
                and self.num_fp_pregs == config.num_fp_pregs)
