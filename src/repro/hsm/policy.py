"""Eviction policies for the partition cache.

A policy picks the next *partition set* to evict — never an individual
bucket, so a relation's cached partition is either wholly present or
wholly absent (Step I consumes all-or-nothing).  Candidates are
unpinned sets only; the cache filters pinned sets out before asking.

* ``lru`` — least recently used set (classic recency).
* ``cost`` — lowest value density first, where a set's value is the
  tape-read time its next hit saves (from the planner/estimator Step I
  cost) divided by the disk blocks it occupies.  NOCAP's observation,
  one level up: under a fixed disk budget the blocks should go to the
  partitions whose re-read from tape is most expensive per block.  The
  cost policy additionally refuses to evict a *denser* set to admit a
  sparser one — admission control and eviction share the metric.

Each policy has ``victim(candidates)``, picking from a non-empty list of
:class:`~repro.hsm.cache.PartitionSet` records, and ``admits(incoming,
victim)``, saying whether evicting ``victim`` for ``incoming`` is worth
it.  Both are deterministic.
"""

from __future__ import annotations

import typing

if typing.TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.hsm.cache import PartitionSet


class LruPolicy:
    """Evict the least recently used set (ties broken by insertion)."""

    name = "lru"

    def victim(self, candidates: typing.Sequence["PartitionSet"]) -> "PartitionSet":
        """Oldest last-use wins; insertion order breaks exact ties."""
        return min(candidates, key=lambda s: (s.last_used_tick, s.inserted_tick))

    def admits(self, incoming: "PartitionSet", victim: "PartitionSet") -> bool:
        """Recency alone decides: every trade is worth it."""
        return True


class CostAwarePolicy:
    """Evict the set saving the least tape time per cached block."""

    name = "cost"

    @staticmethod
    def _density(record: "PartitionSet") -> float:
        return record.value_s / record.blocks if record.blocks > 0 else float("inf")

    def victim(self, candidates: typing.Sequence["PartitionSet"]) -> "PartitionSet":
        """Lowest tape-seconds-saved per block; LRU breaks ties."""
        return min(
            candidates,
            key=lambda s: (self._density(s), s.last_used_tick, s.inserted_tick),
        )

    def admits(self, incoming: "PartitionSet", victim: "PartitionSet") -> bool:
        """Never trade a denser resident set for a sparser newcomer."""
        return self._density(incoming) > self._density(victim)


#: The built-in eviction policies by name: the one lookup that
#: :class:`~repro.hsm.cache.CacheConfig` and
#: :class:`~repro.hsm.cache.PartitionCache` consult.
EVICTION_POLICIES: dict[str, LruPolicy | CostAwarePolicy] = {
    policy.name: policy for policy in (LruPolicy(), CostAwarePolicy())
}
