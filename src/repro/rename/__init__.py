"""Register renaming substrate.

A conventional renamer (Section 4.1 of the paper) consists of three
structures, all provided here:

* the **Rename Map** -- speculative architectural-to-physical mappings;
* the **Free List** -- a pool of unallocated physical registers, maintained
  both speculatively and as the committed image used to recover from
  squashes taken at the commit stage;
* the **Commit Rename Map** -- the non-speculative mappings, copied into
  the Rename Map on a commit-time pipeline flush.

:class:`~repro.rename.renamer.Renamer` performs the per-micro-op renaming
work, including move elimination and SMB integration with whichever
:class:`~repro.core.tracker.SharingTracker` the configuration selects.
"""

from repro.rename.maps import CommitRenameMap, FreeList, RenameMap
from repro.rename.renamer import Renamer

__all__ = [
    "RenameMap",
    "CommitRenameMap",
    "FreeList",
    "Renamer",
]
