"""Hierarchical storage manager: disk as a partition cache over tape.

The paper's disk-based joins (DT-GH/CDT-GH, Section 5) stage a tape
relation's hash partition on disk for exactly one join and discard it.
This package owns a slice of the disk budget as a *content-keyed cache*
of those partitions across jobs: a repeated relation's Step I — the
tape read plus the partition write — is skipped entirely on a hit.

* :mod:`~repro.hsm.cache` — the runtime :class:`PartitionCache`:
  partition sets keyed by (relation fingerprint, bucket count),
  block-accurate capacity accounting, atomic whole-set
  admission/eviction, pin/unpin for in-flight joins; plus the
  serializable :class:`CacheConfig` (rides on ``ServiceConfig.cache``)
  and the :class:`CacheReport` summary.
* :mod:`~repro.hsm.policy` — LRU and cost-aware (tape-seconds saved
  per block) eviction.

Default-off and inert: without a cache attached, join and service
behaviour — artifacts, fingerprints, traces — is byte-identical to a
build without this package.  See ``docs/hsm.md``.
"""

from repro.hsm.cache import (
    CacheConfig,
    CacheReport,
    PartitionCache,
    PartitionSetKey,
    relation_fingerprint,
)
from repro.hsm.policy import EVICTION_POLICIES, CostAwarePolicy, LruPolicy

__all__ = [
    "CacheConfig",
    "CacheReport",
    "CostAwarePolicy",
    "EVICTION_POLICIES",
    "LruPolicy",
    "PartitionCache",
    "PartitionSetKey",
    "relation_fingerprint",
]
