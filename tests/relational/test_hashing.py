"""Hash partitioning: determinism, balance, correctness."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.hashing import bucket_ids, partition_keys


class TestBucketIds:
    def test_range(self):
        ids = bucket_ids(np.arange(1000), 7)
        assert ids.min() >= 0
        assert ids.max() < 7

    def test_deterministic(self):
        keys = np.arange(100)
        np.testing.assert_array_equal(bucket_ids(keys, 5), bucket_ids(keys, 5))

    def test_salt_changes_assignment(self):
        keys = np.arange(1000)
        assert not np.array_equal(bucket_ids(keys, 5), bucket_ids(keys, 5, salt=1))

    def test_single_bucket(self):
        assert (bucket_ids(np.arange(50), 1) == 0).all()

    def test_invalid_bucket_count(self):
        with pytest.raises(ValueError):
            bucket_ids(np.arange(5), 0)

    def test_equal_keys_equal_buckets(self):
        """The Grace-hash correctness invariant: the same key always
        routes to the same bucket, whichever relation it comes from."""
        keys = np.array([42, 42, 42, 7, 7])
        ids = bucket_ids(keys, 13)
        assert len(set(ids[:3])) == 1
        assert len(set(ids[3:])) == 1

    @given(
        keys=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=50),
        n_buckets=st.one_of(
            st.integers(1, 70_000),
            st.sampled_from([2**16, 2**16 + 1, 2**32 - 1, 2**32, 2**32 + 3, 2**40]),
        ),
        salt=st.sampled_from([0, 1, 12345, 2**63]),
    )
    @settings(max_examples=200, deadline=None)
    def test_matches_the_remainder_formula(self, keys, n_buckets, salt):
        """The bucket is the top 32 bits of the salted multiplicative
        hash, modulo the bucket count, computed however is fastest."""
        hashed = np.array(keys, dtype=np.int64).astype(np.uint64)
        hashed += np.uint64(salt)
        hashed *= np.uint64(0x9E3779B97F4A7C15)
        expected = (hashed >> np.uint64(32)) % np.uint64(n_buckets)
        actual = bucket_ids(np.array(keys, dtype=np.int64), n_buckets, salt)
        assert actual.dtype == np.int64
        np.testing.assert_array_equal(actual, expected.astype(np.int64))

    def test_sequential_keys_are_balanced(self):
        """The paper assumes hash buckets are equal-sized; our
        multiplicative hash must spread even sequential keys evenly."""
        ids = bucket_ids(np.arange(100_000), 16)
        counts = np.bincount(ids, minlength=16)
        assert counts.max() / counts.min() < 1.1

    @given(
        n_keys=st.integers(min_value=100, max_value=5000),
        n_buckets=st.integers(min_value=2, max_value=64),
        seed=st.integers(min_value=0, max_value=1000),
    )
    @settings(max_examples=30, deadline=None)
    def test_uniform_keys_are_balanced(self, n_keys, n_buckets, seed):
        rng = np.random.default_rng(seed)
        keys = rng.integers(0, 10 * n_keys, size=n_keys)
        counts = np.bincount(bucket_ids(keys, n_buckets), minlength=n_buckets)
        expected = n_keys / n_buckets
        # Allow generous statistical slack: 6 sigma of a binomial.
        sigma = (expected * (1 - 1 / n_buckets)) ** 0.5
        assert counts.max() <= expected + 6 * sigma + 1


def bucket_parts(keys, n_buckets):
    """``partition_keys``' sorted pool cut at its bucket ends."""
    sorted_keys, ends, _order = partition_keys(keys, n_buckets)
    return [sorted_keys[lo:hi] for lo, hi in zip([0, *ends[:-1]], ends)]


class TestPartitionKeys:
    def test_returns_sorted_pool_and_bucket_ends(self):
        keys = np.random.default_rng(1).integers(0, 1000, size=200)
        sorted_keys, ends, order = partition_keys(keys, 6)
        np.testing.assert_array_equal(keys[order], sorted_keys)
        assert isinstance(ends, list) and len(ends) == 6
        assert all(isinstance(end, int) for end in ends)
        assert ends == sorted(ends) and ends[-1] == len(keys) == len(sorted_keys)
        ids = bucket_ids(sorted_keys, 6)
        assert (np.diff(ids) >= 0).all()  # grouped by bucket, in bucket order

    def test_partition_is_a_partition(self):
        keys = np.random.default_rng(0).integers(0, 1000, size=500)
        parts = bucket_parts(keys, 8)
        assert len(parts) == 8
        merged = np.concatenate(parts)
        np.testing.assert_array_equal(np.sort(merged), np.sort(keys))

    def test_parts_agree_with_bucket_ids(self):
        keys = np.arange(300)
        ids = bucket_ids(keys, 5)
        parts = bucket_parts(keys, 5)
        for bucket, part in enumerate(parts):
            np.testing.assert_array_equal(np.sort(part), np.sort(keys[ids == bucket]))

    def test_order_within_bucket_preserved(self):
        keys = np.array([10, 20, 10, 30, 10])
        parts = bucket_parts(keys, 4)
        bucket = int(bucket_ids(np.array([10]), 4)[0])
        tens = parts[bucket][parts[bucket] == 10]
        assert len(tens) == 3

    def test_empty_buckets_allowed(self):
        parts = bucket_parts(np.array([1]), 10)
        assert sum(len(p) for p in parts) == 1
