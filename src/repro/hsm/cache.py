"""The partition cache: content-keyed Grace-Hash partitions kept on disk.

Grace-Hash Step I turns a tape-resident relation into ``B`` hash-bucket
extents on disk, normally used once and discarded.  The cache keeps
those partitions: a set is addressed by its :class:`PartitionSetKey` —
(relation content fingerprint, bucket count) — so a later join over the
*same data* partitioned the *same way* finds its Step I output already
disk-resident, byte for byte.

Accounting is block-accurate against a fixed capacity (a slice of the
paper's ``D``): every admit reserves the set's exact block total, every
eviction releases it, and a set larger than the whole cache is rejected
outright.  Sets are atomic — admitted, evicted and pinned as a whole —
so a partial bucket set can never be observed (a join that found only
some buckets would silently lose tuples).  Pinned sets belong to
in-flight joins and are never eviction candidates; capacity pressure
that only pinned sets could relieve rejects the admission instead.

:class:`CacheConfig` is the serializable knob that rides on
:class:`~repro.service.requests.ServiceConfig` (and through the sweep
cache's fingerprints); :class:`PartitionCache` is the live object;
:class:`CacheReport` is the summary a
:class:`~repro.service.metrics.WorkloadReport` carries.
"""

from __future__ import annotations

import dataclasses
import hashlib
import math
import typing
import weakref

import numpy as np

from repro.hsm.policy import EVICTION_POLICIES

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.experiments.config import ExperimentScale
    from repro.relational.relation import Relation
    from repro.storage.block import DataChunk

#: Bytes per MB, matching ``repro.storage.block``.
_MB = 1024 * 1024

#: Content fingerprints per live Relation object; relations are memoized
#: by the service and the sweep workers, so each is hashed once.
_FP_MEMO: "weakref.WeakKeyDictionary[Relation, str]" = weakref.WeakKeyDictionary()


def relation_fingerprint(relation: "Relation") -> str:
    """sha256 over the relation's key array and block geometry.

    Content-addressed on purpose: two requests naming different volumes
    but carrying identical data (same generator seed and sizes) share
    cached partitions, and a regenerated relation with different keys
    never matches a stale entry.
    """
    cached = _FP_MEMO.get(relation)
    if cached is None:
        digest = hashlib.sha256()
        digest.update(str(relation.tuples_per_block).encode())
        digest.update(np.ascontiguousarray(relation.keys, dtype=np.int64).tobytes())
        cached = digest.hexdigest()
        _FP_MEMO[relation] = cached
    return cached


def _check_policy(name: str) -> None:
    if name not in EVICTION_POLICIES:
        known = ", ".join(sorted(EVICTION_POLICIES))
        raise ValueError(f"unknown eviction policy {name!r} (known: {known})")


@dataclasses.dataclass(frozen=True)
class PartitionSetKey:
    """Identity of one relation's full partition: all B buckets.

    The join methods partition with one hash function
    (``repro.relational.hashing.bucket_ids``), so the bucket count is
    the only partitioning parameter the key needs.
    """

    relation: str
    n_buckets: int

    @classmethod
    def for_relation(cls, relation: "Relation", n_buckets: int) -> "PartitionSetKey":
        """Key for ``relation`` hashed into ``n_buckets`` buckets."""
        return cls(relation_fingerprint(relation), n_buckets)


class PartitionSet:
    """One resident set: its buckets plus the recency and pin bookkeeping
    the eviction policies read.

    ``buckets`` is one ``(blocks, data)`` pair per bucket id.  ``data``
    carries the bucket's tuples when the producer ran in a real
    simulation (the grace-hash integration re-installs them on a hit);
    the service scheduler, which charges jobs as opaque time windows,
    caches footprints only and leaves ``data`` as None.
    """

    __slots__ = ("key", "buckets", "blocks", "value_s", "inserted_tick",
                 "last_used_tick", "pins", "hits")

    def __init__(self, key: PartitionSetKey,
                 buckets: list[tuple[float, "DataChunk | None"]],
                 value_s: float, tick: int):
        self.key = key
        self.buckets = buckets
        self.blocks = sum(blocks for blocks, _data in buckets)
        self.value_s = value_s
        self.inserted_tick = tick
        self.last_used_tick = tick
        self.pins = 0
        self.hits = 0


@dataclasses.dataclass(frozen=True)
class CacheConfig:
    """Serializable partition-cache settings (paper-MB capacity)."""

    capacity_mb: float = 500.0
    policy: str = "lru"

    def __post_init__(self):
        if not (self.capacity_mb > 0 and math.isfinite(self.capacity_mb)):
            raise ValueError(
                f"cache capacity must be positive and finite, got {self.capacity_mb} MB"
            )
        _check_policy(self.policy)


@dataclasses.dataclass(frozen=True)
class CacheReport:
    """Partition-cache outcome of one service run (or run window)."""

    policy: str
    capacity_blocks: float
    used_blocks: float
    resident_sets: int
    hits: int
    misses: int
    evictions: int
    rejections: int
    saved_blocks: float
    saved_tape_s: float
    tape_mb_avoided: float

    @property
    def hit_ratio(self) -> float:
        """Hits over lookups (0.0 when nothing was looked up)."""
        lookups = self.hits + self.misses
        return self.hits / lookups if lookups else 0.0

    def to_dict(self) -> dict:
        """JSON-serializable form (derived hit ratio included)."""
        payload = dataclasses.asdict(self)
        payload["hit_ratio"] = self.hit_ratio
        return payload


class PartitionCache:
    """Resident partition sets with block-accurate capacity accounting.

    One instance is meant to outlive many runs — the service keeps it
    across :meth:`~repro.service.scheduler.JoinService.run` calls, which
    is what makes a second (warm) run of the same workload cheap.  For
    the same reason the recency clock is a logical tick advanced per
    cache operation, not simulated time: each run's clock restarts at
    zero.
    """

    def __init__(
        self,
        capacity_blocks: float,
        policy: str = "lru",
        block_bytes: int = 100 * 1024,
    ):
        if not (capacity_blocks > 0 and math.isfinite(capacity_blocks)):
            raise ValueError(
                f"cache capacity must be positive and finite, "
                f"got {capacity_blocks} blocks"
            )
        _check_policy(policy)
        self.capacity_blocks = float(capacity_blocks)
        self.policy = EVICTION_POLICIES[policy]
        self.block_bytes = block_bytes
        self._sets: dict[PartitionSetKey, PartitionSet] = {}
        self._tick = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.rejections = 0
        self.saved_blocks = 0.0
        self.saved_tape_s = 0.0

    @classmethod
    def from_config(cls, config: CacheConfig, scale: "ExperimentScale") -> "PartitionCache":
        """Build the runtime cache for a service's scale."""
        return cls(
            capacity_blocks=scale.blocks(config.capacity_mb),
            policy=config.policy,
            block_bytes=scale.block_spec.block_bytes,
        )

    # -- capacity accounting ---------------------------------------------------

    @property
    def used_blocks(self) -> float:
        """Blocks occupied by resident sets."""
        return sum(s.blocks for s in self._sets.values())

    @property
    def free_blocks(self) -> float:
        """Blocks available without evicting."""
        return self.capacity_blocks - self.used_blocks

    @property
    def sets(self) -> list[PartitionSet]:
        """Every resident set, in insertion order."""
        return list(self._sets.values())

    def contains(self, set_key: PartitionSetKey) -> bool:
        """Whether the full bucket set is resident (no counters touched)."""
        return set_key in self._sets

    # -- lookup ----------------------------------------------------------------

    def lookup(
        self,
        set_key: PartitionSetKey,
        pin: bool = True,
        count_miss: bool = True,
    ) -> list[tuple[float, "DataChunk | None"]] | None:
        """All B ``(blocks, data)`` bucket pairs on a hit, None on a miss.

        A hit counts toward the hit/saved counters, refreshes recency and
        (by default) pins the set for the caller's join; every successful
        lookup therefore needs a matching :meth:`unpin`.  ``count_miss=
        False`` suits double-checked callers that will look up again
        after queueing — the retry counts the miss exactly once.
        """
        self._tick += 1
        resident = self._sets.get(set_key)
        if resident is None:
            if count_miss:
                self.misses += 1
            return None
        resident.last_used_tick = self._tick
        resident.hits += 1
        if pin:
            resident.pins += 1
        self.hits += 1
        self.saved_blocks += resident.blocks
        self.saved_tape_s += resident.value_s
        return list(resident.buckets)

    # -- pinning ---------------------------------------------------------------

    def pin(self, set_key: PartitionSetKey) -> None:
        """Shield a resident set from eviction (counted; nestable)."""
        self._resident(set_key).pins += 1

    def unpin(self, set_key: PartitionSetKey) -> None:
        """Release one pin taken by :meth:`pin` or :meth:`lookup`."""
        resident = self._resident(set_key)
        if resident.pins <= 0:
            raise ValueError(f"set {set_key} is not pinned")
        resident.pins -= 1

    def _resident(self, set_key: PartitionSetKey) -> PartitionSet:
        resident = self._sets.get(set_key)
        if resident is None:
            raise KeyError(f"partition set {set_key} is not resident")
        return resident

    # -- admission / eviction --------------------------------------------------

    def admit(
        self,
        set_key: PartitionSetKey,
        buckets: typing.Sequence[tuple[float, "DataChunk | None"]],
        value_s: float,
    ) -> bool:
        """Insert a full bucket set; evict per policy until it fits.

        ``buckets`` is one ``(blocks, data)`` pair per bucket id, in
        bucket order; ``value_s`` is the tape-read time one future hit
        saves (planner Step I estimate or measured Step I).  Victims are
        chosen up front and only evicted once the whole set is known to
        fit, so a rejected admission never costs a resident set.  Returns
        False — counting a rejection — when the set exceeds capacity, the
        policy declines the trade, or only pinned sets could make room.
        """
        if len(buckets) != set_key.n_buckets:
            raise ValueError(
                f"set {set_key} needs {set_key.n_buckets} buckets, "
                f"got {len(buckets)}"
            )
        for blocks, _data in buckets:
            if not (blocks >= 0 and math.isfinite(blocks)):
                raise ValueError(
                    f"bucket blocks must be non-negative and finite, got {blocks}"
                )
        if not (value_s >= 0 and math.isfinite(value_s)):
            raise ValueError(
                f"value_s must be non-negative and finite, got {value_s}"
            )
        self._tick += 1
        resident = self._sets.get(set_key)
        if resident is not None:  # concurrent producer won the race
            resident.last_used_tick = self._tick
            return True
        incoming = PartitionSet(set_key, list(buckets), value_s, self._tick)
        if incoming.blocks > self.capacity_blocks + 1e-9:
            self.rejections += 1
            return False
        pool = [s for s in self._sets.values() if s.pins == 0]
        victims: list[PartitionSet] = []
        free = self.free_blocks
        while free + 1e-9 < incoming.blocks:
            if not pool:
                self.rejections += 1
                return False
            victim = self.policy.victim(pool)
            if not self.policy.admits(incoming, victim):
                self.rejections += 1
                return False
            pool.remove(victim)
            victims.append(victim)
            free += victim.blocks
        for victim in victims:
            self.evict(victim.key)
        self._sets[set_key] = incoming
        return True

    def evict(self, set_key: PartitionSetKey) -> None:
        """Drop a whole resident set (refused while pinned)."""
        resident = self._resident(set_key)
        if resident.pins > 0:
            raise ValueError(f"cannot evict pinned set {set_key}")
        del self._sets[set_key]
        self.evictions += 1

    # -- reporting -------------------------------------------------------------

    def report(self, since: "CacheReport | None" = None) -> CacheReport:
        """Counters as a report; ``since`` subtracts an earlier snapshot.

        Capacity/occupancy fields are always current values — only the
        monotone counters are windowed, which is how a warm run reports
        its own hits rather than the cache's lifetime totals.
        """
        base = dict.fromkeys(
            ("hits", "misses", "evictions", "rejections",
             "saved_blocks", "saved_tape_s", "tape_mb_avoided"), 0,
        )
        if since is not None:
            base = dataclasses.asdict(since)
        saved_blocks = self.saved_blocks - base["saved_blocks"]
        return CacheReport(
            policy=self.policy.name,
            capacity_blocks=self.capacity_blocks,
            used_blocks=self.used_blocks,
            resident_sets=len(self._sets),
            hits=self.hits - base["hits"],
            misses=self.misses - base["misses"],
            evictions=self.evictions - base["evictions"],
            rejections=self.rejections - base["rejections"],
            saved_blocks=saved_blocks,
            saved_tape_s=self.saved_tape_s - base["saved_tape_s"],
            tape_mb_avoided=saved_blocks * self.block_bytes / _MB,
        )
