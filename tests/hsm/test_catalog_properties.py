"""Property tests: the partition cache's invariants under random workloads.

``docs/hsm.md`` points here for the two load-bearing guarantees:
``used_blocks <= capacity_blocks`` always holds, and a pinned set
survives arbitrary capacity pressure until its last consumer unpins.
"""

import hypothesis.strategies as st
import pytest
from hypothesis import given, settings

from repro.hsm.cache import PartitionCache, PartitionSetKey

CAPACITY = 100.0
NAMES = tuple(f"rel-{i}" for i in range(6))


def _key(name: str) -> PartitionSetKey:
    return PartitionSetKey(relation=name, n_buckets=2)


ops = st.lists(
    st.tuples(
        st.sampled_from(["admit", "lookup", "pin", "unpin", "evict"]),
        st.sampled_from(NAMES),
        st.floats(min_value=5.0, max_value=90.0),
    ),
    min_size=1,
    max_size=60,
)


@settings(max_examples=200, deadline=None)
@given(ops=ops, policy=st.sampled_from(["lru", "cost"]))
def test_capacity_and_pin_invariants(ops, policy):
    cache = PartitionCache(capacity_blocks=CAPACITY, policy=policy)
    pins: dict[PartitionSetKey, int] = {}

    for op, name, blocks in ops:
        key = _key(name)
        if op == "admit":
            cache.admit(key, [(blocks / 2, None)] * 2, value_s=blocks)
        elif op == "lookup":
            if cache.lookup(key) is not None:  # a hit pins
                pins[key] = pins.get(key, 0) + 1
        elif op == "pin":
            if cache.contains(key):
                cache.pin(key)
                pins[key] = pins.get(key, 0) + 1
        elif op == "unpin":
            if pins.get(key, 0) > 0:
                cache.unpin(key)
                pins[key] -= 1
        elif op == "evict" and cache.contains(key):
            if pins.get(key, 0) > 0:
                with pytest.raises(ValueError, match="pinned"):
                    cache.evict(key)  # pinned: refused, nothing dropped
            else:
                cache.evict(key)

        # Invariant 1: the cache never overcommits its capacity.
        assert cache.used_blocks <= CAPACITY + 1e-9
        assert cache.free_blocks >= -1e-9
        # Invariant 2: every set a consumer still pins stays resident.
        for pinned_key, count in pins.items():
            if count > 0:
                assert cache.contains(pinned_key)

    # Bookkeeping coherence after the dust settles.
    assert cache.used_blocks == sum(s.blocks for s in cache.sets)
    for resident in cache.sets:
        assert resident.pins == pins.get(resident.key, 0)


@settings(max_examples=100, deadline=None)
@given(
    sizes=st.lists(st.floats(min_value=5.0, max_value=90.0), min_size=2, max_size=20)
)
def test_pinned_set_survives_sustained_pressure(sizes):
    """A pinned hot set outlives a stream of admissions that overflows
    the cache many times over."""
    cache = PartitionCache(capacity_blocks=CAPACITY)
    hot = _key("hot")
    assert cache.admit(hot, [(20.0, None)] * 2, value_s=1.0)
    cache.pin(hot)

    for i, blocks in enumerate(sizes):
        cache.admit(_key(f"churn-{i}"), [(blocks / 2, None)] * 2, value_s=1.0)
        assert cache.contains(hot)
        assert cache.used_blocks <= CAPACITY + 1e-9

    cache.unpin(hot)
    # Once unpinned it is fair game again: enough pressure can evict it.
    assert cache.admit(_key("flood"), [(45.0, None)] * 2, value_s=99.0)
