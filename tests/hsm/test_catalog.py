"""Unit tests for the partition cache and its eviction policies."""

import dataclasses

import pytest

from repro.experiments.config import ExperimentScale
from repro.hsm.cache import CacheConfig, PartitionCache, PartitionSetKey
from repro.hsm.policy import EVICTION_POLICIES, CostAwarePolicy, LruPolicy
from repro.relational.datagen import uniform_relation
from repro.sweep.serialize import rebuild

from tests.hsm.conftest import buckets, set_key


class TestConstruction:
    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            PartitionCache(capacity_blocks=0.0)
        with pytest.raises(ValueError):
            PartitionCache(capacity_blocks=-10.0)

    @pytest.mark.parametrize("capacity", [float("nan"), float("inf")])
    def test_capacity_must_be_finite(self, capacity):
        with pytest.raises(ValueError):
            PartitionCache(capacity_blocks=capacity)
        with pytest.raises(ValueError):
            CacheConfig(capacity_mb=capacity)

    def test_unknown_policy_name_lists_the_known_ones(self):
        with pytest.raises(ValueError, match="cost"):
            PartitionCache(capacity_blocks=100.0, policy="mru")

    def test_registry_covers_the_builtin_policies(self):
        assert set(EVICTION_POLICIES) == {"lru", "cost"}
        assert isinstance(EVICTION_POLICIES["lru"], LruPolicy)
        assert isinstance(EVICTION_POLICIES["cost"], CostAwarePolicy)


class TestAdmitLookup:
    def test_admit_then_lookup_hits_and_accounts_blocks(self, cache):
        key = set_key("r1")
        assert cache.admit(key, buckets(40.0), value_s=10.0)
        assert cache.used_blocks == pytest.approx(40.0)
        assert cache.free_blocks == pytest.approx(60.0)
        assert len(cache.sets) == 1
        assert cache.contains(key)

        cached = cache.lookup(key, pin=False)
        assert cached is not None
        assert len(cached) == key.n_buckets
        assert sum(blocks for blocks, _data in cached) == pytest.approx(40.0)
        assert cache.hits == 1 and cache.misses == 0
        assert cache.saved_blocks == pytest.approx(40.0)
        assert cache.saved_tape_s == pytest.approx(10.0)

    def test_lookup_miss_counts_once_and_returns_none(self, cache):
        assert cache.lookup(set_key("absent")) is None
        assert cache.misses == 1
        assert cache.lookup(set_key("absent"), count_miss=False) is None
        assert cache.misses == 1  # pre-flight probes are free

    def test_admit_validates_the_whole_set(self, cache):
        with pytest.raises(ValueError, match="buckets"):
            cache.admit(set_key("r1", n_buckets=4), buckets(40.0, 2), 1.0)

    @pytest.mark.parametrize("blocks", [float("nan"), float("inf"), -10.0])
    def test_admit_rejects_bad_bucket_blocks(self, cache, blocks):
        with pytest.raises(ValueError, match="blocks"):
            cache.admit(set_key("r1"), [(blocks, None), (10.0, None)], 1.0)
        assert not cache.sets and cache.used_blocks == 0.0

    @pytest.mark.parametrize("value_s", [float("nan"), float("inf"), -1.0])
    def test_admit_rejects_bad_value(self, cache, value_s):
        with pytest.raises(ValueError, match="value_s"):
            cache.admit(set_key("r1"), buckets(40.0), value_s)
        assert not cache.sets

    def test_readmitting_a_resident_set_is_a_touch_not_a_copy(self, cache):
        key = set_key("r1")
        assert cache.admit(key, buckets(40.0), value_s=10.0)
        assert cache.admit(key, buckets(40.0), value_s=10.0)
        assert len(cache.sets) == 1
        assert cache.used_blocks == pytest.approx(40.0)

    def test_oversized_set_is_rejected_without_evicting(self, cache):
        assert cache.admit(set_key("r1"), buckets(40.0), value_s=10.0)
        assert not cache.admit(set_key("huge"), buckets(150.0), value_s=99.0)
        assert cache.rejections == 1
        assert cache.evictions == 0
        assert cache.contains(set_key("r1"))


class TestEviction:
    def test_lru_evicts_the_least_recently_used_set(self, cache):
        a, b = set_key("a"), set_key("b")
        assert cache.admit(a, buckets(40.0), value_s=1.0)
        assert cache.admit(b, buckets(40.0), value_s=1.0)
        cache.lookup(a, pin=False)  # refresh a; b is now LRU
        assert cache.admit(set_key("c"), buckets(40.0), value_s=1.0)
        assert cache.contains(a) and not cache.contains(b)
        assert cache.evictions == 1

    def test_failed_admission_evicts_nothing(self, cache):
        a, b = set_key("a"), set_key("b")
        assert cache.admit(a, buckets(40.0), value_s=1.0)
        assert cache.admit(b, buckets(40.0), value_s=1.0)
        cache.pin(a)
        cache.pin(b)
        # c needs 80 free blocks, but both residents are pinned.
        assert not cache.admit(set_key("c"), buckets(80.0), value_s=9.0)
        assert cache.rejections == 1
        assert cache.evictions == 0
        assert cache.contains(a) and cache.contains(b)

    def test_cost_policy_refuses_to_trade_dense_for_sparse(self):
        cache = PartitionCache(capacity_blocks=100.0, policy="cost")
        dense = set_key("dense")
        assert cache.admit(dense, buckets(80.0), value_s=800.0)  # 10 s/blk
        # The newcomer is worth far less per block: declined.
        assert not cache.admit(set_key("sparse"), buckets(80.0), value_s=8.0)
        assert cache.rejections == 1
        assert cache.contains(dense)
        # A denser newcomer does displace the resident.
        assert cache.admit(set_key("denser"), buckets(80.0), value_s=1600.0)
        assert not cache.contains(dense)

    def test_direct_evict_refuses_a_pinned_set(self, cache):
        key = set_key("r1")
        assert cache.admit(key, buckets(40.0), value_s=1.0)
        cache.pin(key)
        with pytest.raises(ValueError, match="pinned"):
            cache.evict(key)


class TestPinning:
    def test_lookup_pins_and_unpin_releases(self, cache):
        key = set_key("r1")
        assert cache.admit(key, buckets(40.0), value_s=1.0)
        assert cache.lookup(key) is not None  # default pin=True
        (resident,) = cache.sets
        assert resident.pins == 1
        cache.unpin(key)
        (resident,) = cache.sets
        assert resident.pins == 0

    def test_pins_are_counted_for_concurrent_consumers(self, cache):
        key = set_key("r1")
        assert cache.admit(key, buckets(40.0), value_s=1.0)
        cache.pin(key)
        cache.pin(key)
        cache.unpin(key)
        with pytest.raises(ValueError, match="pinned"):
            cache.evict(key)  # one consumer still holds it
        cache.unpin(key)
        cache.evict(key)

    def test_unpin_below_zero_raises(self, cache):
        key = set_key("r1")
        assert cache.admit(key, buckets(40.0), value_s=1.0)
        with pytest.raises(ValueError):
            cache.unpin(key)

    def test_pin_of_absent_set_raises(self, cache):
        with pytest.raises(KeyError):
            cache.pin(set_key("absent"))


class TestCacheConfig:
    def test_validates_capacity_and_policy(self):
        with pytest.raises(ValueError):
            CacheConfig(capacity_mb=0.0)
        with pytest.raises(ValueError):
            CacheConfig(policy="mru")

    def test_round_trips_through_dict(self):
        config = CacheConfig(capacity_mb=250.0, policy="cost")
        assert rebuild(CacheConfig, dataclasses.asdict(config)) == config

    def test_from_config_scales_paper_mb_to_blocks(self, scale):
        cache = PartitionCache.from_config(CacheConfig(capacity_mb=500.0), scale)
        assert cache.capacity_blocks == pytest.approx(scale.blocks(500.0))


class TestPartitionCache:
    def test_relation_keying_is_content_addressed(self, scale):
        r1 = uniform_relation("R", 2.0, tuple_bytes=2048, seed=11)
        same_bytes = uniform_relation("other-name", 2.0, tuple_bytes=2048, seed=11)
        other = uniform_relation("R", 2.0, tuple_bytes=2048, seed=12)
        key = PartitionSetKey.for_relation(r1, n_buckets=4)
        assert key == PartitionSetKey.for_relation(same_bytes, n_buckets=4)
        assert key != PartitionSetKey.for_relation(other, n_buckets=4)
        assert key != PartitionSetKey.for_relation(r1, n_buckets=8)

    def test_report_windows_the_monotone_counters(self):
        cache = PartitionCache(capacity_blocks=100.0)
        key = set_key("r1")
        cache.admit(key, buckets(40.0), value_s=10.0)
        cache.lookup(key, pin=False)
        before = cache.report()
        assert before.hits == 1 and before.misses == 0
        cache.lookup(key, pin=False)
        cache.lookup(set_key("absent"))
        windowed = cache.report(since=before)
        assert windowed.hits == 1 and windowed.misses == 1
        assert windowed.hit_ratio == pytest.approx(0.5)
        # Occupancy is current state, not a delta.
        assert windowed.used_blocks == pytest.approx(40.0)
        assert windowed.resident_sets == 1

    def test_empty_report_has_zero_hit_ratio(self):
        report = PartitionCache(capacity_blocks=10.0).report()
        assert report.hit_ratio == 0.0
        assert report.to_dict()["hit_ratio"] == 0.0

    def test_tape_mb_avoided_uses_the_block_geometry(self):
        cache = PartitionCache(capacity_blocks=100.0, block_bytes=100 * 1024)
        key = set_key("r1")
        cache.admit(key, buckets(40.0), value_s=10.0)
        cache.lookup(key, pin=False)
        expected_mb = 40.0 * 100 * 1024 / (1024 * 1024)
        assert cache.report().tape_mb_avoided == pytest.approx(expected_mb)
