"""Resource requirements of the tertiary join methods (Table 2).

Each join method reports its minimum memory, disk and scratch-tape needs
for a concrete :class:`~repro.core.spec.JoinSpec`; this module holds the
shared dataclass and the memory-layout policy constants every method uses
so that the numeric requirements and the executed algorithms cannot drift
apart.  The paper's symbolic rows are each method's ``table2``.
"""

from __future__ import annotations

import dataclasses
import math

#: Fraction of M used as the R-scan buffer in Nested Block methods
#: ("we allocated 10% of M for scanning relation R ... 90% for buffering S").
NB_R_SCAN_FRACTION = 0.1

#: Fraction of M holding one R hash bucket during the join phase of
#: Grace-Hash methods; the rest is staging and the probe window.
GH_BUCKET_FRACTION = 0.5

#: Target *average* bucket size used to choose the bucket count B.  Kept
#: below :data:`GH_BUCKET_FRACTION` so the natural variance of hash bucket
#: sizes (the paper assumes perfectly uniform buckets; real ones deviate
#: by a few sigma) still fits the bucket share of M.
GH_BUCKET_TARGET_FRACTION = 0.4

#: Fraction of M used to stage sequential tape reads in Grace-Hash methods.
GH_READ_STAGING_FRACTION = 0.2

#: Fraction of M shared among per-bucket write staging buffers
#: ("when the number of buckets is large, the size of this main memory
#: buffer becomes significant and is therefore included in M").
GH_WRITE_STAGING_FRACTION = 0.2

#: Fraction of M used as the window through which the matching S bucket is
#: scanned past the memory-resident R bucket.
GH_PROBE_FRACTION = 0.1


def clamp_gh_memory(memory_blocks: float, r_blocks: float) -> float:
    """Scaled memory, clamped to Grace Hash's M >= sqrt(|R|) feasibility.

    Relation sizes scale linearly but the sqrt(|R|) memory floor does
    not, so a scaled-down run keeps at least ``1.05 * sqrt(|R|)`` blocks,
    and at most ``|R| - 1`` unless the floor itself is higher.  The
    experiment drivers and the service's admission share it.
    """
    floor = 1.05 * math.sqrt(r_blocks)
    return min(max(memory_blocks, floor), max(r_blocks - 1.0, floor))


@dataclasses.dataclass(frozen=True)
class ResourceRequirements:
    """Minimum resources a method needs for a given join, in blocks."""

    memory_blocks: float
    disk_blocks: float
    tape_scratch_r_blocks: float
    tape_scratch_s_blocks: float

    def fits(self, memory: float, disk: float, scratch_r: float, scratch_s: float) -> bool:
        """True when every budget covers the requirement."""
        eps = 1e-9
        return (
            memory + eps >= self.memory_blocks
            and disk + eps >= self.disk_blocks
            and scratch_r + eps >= self.tape_scratch_r_blocks
            and scratch_s + eps >= self.tape_scratch_s_blocks
        )
