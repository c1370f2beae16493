"""Join primitives: correctness, additivity, checksum properties."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.relational.hashing import partition_keys
from repro.relational.join_core import (
    BuildSide,
    JoinAccumulator,
    JoinResult,
    hash_join,
    nested_loop_join,
    reference_join,
)

keys_arrays = st.lists(
    st.integers(min_value=-50, max_value=50), min_size=0, max_size=60
).map(lambda xs: np.array(xs, dtype=np.int64))


class TestJoinResult:
    def test_addition(self):
        total = JoinResult(2, 10) + JoinResult(3, 20)
        assert total == JoinResult(5, 30)

    def test_checksum_wraps_mod_2_64(self):
        big = JoinResult(1, 2**64 - 1) + JoinResult(1, 5)
        assert big.checksum == 4

    def test_zero_identity(self):
        result = JoinResult(7, 1234)
        assert result + JoinResult.zero() == result


class TestHashJoin:
    def test_simple_match_counts(self):
        result = hash_join(np.array([1, 2, 3]), np.array([2, 2, 4]))
        assert result.n_pairs == 2

    def test_duplicates_multiply(self):
        result = hash_join(np.array([5, 5]), np.array([5, 5, 5]))
        assert result.n_pairs == 6

    def test_no_matches(self):
        result = hash_join(np.array([1, 2]), np.array([3, 4]))
        assert result == JoinResult.zero()

    def test_empty_inputs(self):
        empty = np.empty(0, dtype=np.int64)
        assert hash_join(empty, np.array([1])) == JoinResult.zero()
        assert hash_join(np.array([1]), empty) == JoinResult.zero()

    def test_symmetric(self):
        a = np.array([1, 2, 2, 3])
        b = np.array([2, 3, 3])
        assert hash_join(a, b) == hash_join(b, a)

    @given(r=keys_arrays, s=keys_arrays)
    @settings(max_examples=100, deadline=None)
    def test_matches_nested_loop_reference(self, r, s):
        assert hash_join(r, s) == nested_loop_join(r, s)

    @given(r=keys_arrays, s=keys_arrays, n_chunks=st.integers(2, 5))
    @settings(max_examples=60, deadline=None)
    def test_additive_over_s_chunks(self, r, s, n_chunks):
        """Nested-block decomposition: joining R against S chunk by chunk
        sums to the full join."""
        whole = hash_join(r, s)
        acc = JoinAccumulator()
        for part in np.array_split(s, n_chunks):
            acc.add(hash_join(r, part))
        assert acc.result() == whole

    @given(r=keys_arrays, s=keys_arrays, n_buckets=st.integers(1, 8))
    @settings(max_examples=60, deadline=None)
    def test_additive_over_hash_buckets(self, r, s, n_buckets):
        """Grace-hash decomposition: per-bucket mini-joins sum to the
        full join."""
        whole = hash_join(r, s)
        acc = JoinAccumulator()
        r_pool, r_ends = partition_keys(r, n_buckets)
        s_pool, s_ends = partition_keys(s, n_buckets)
        r_starts, s_starts = [0, *r_ends[:-1]], [0, *s_ends[:-1]]
        for r_lo, r_hi, s_lo, s_hi in zip(r_starts, r_ends, s_starts, s_ends):
            acc.add(hash_join(r_pool[r_lo:r_hi], s_pool[s_lo:s_hi]))
        assert acc.result() == whole

    def test_checksum_distinguishes_results_of_equal_size(self):
        a = hash_join(np.array([1]), np.array([1]))
        b = hash_join(np.array([2]), np.array([2]))
        assert a.n_pairs == b.n_pairs == 1
        assert a.checksum != b.checksum


def zipf_keys(seed: int, size: int) -> np.ndarray:
    return np.random.default_rng(seed).zipf(1.3, size).astype(np.int64) % 1000


def int64_arrays(lo: int, hi: int, max_size: int):
    return st.lists(st.integers(lo, hi), max_size=max_size).map(
        lambda xs: np.array(xs, dtype=np.int64)
    )


#: Uniform, zipf-skewed, negative, duplicate-heavy and full-int64 keys.
join_keys = st.one_of(
    int64_arrays(0, 999, 80),
    st.builds(zipf_keys, st.integers(0, 2**32 - 1), st.integers(0, 200)),
    int64_arrays(-(2**63), -1, 40),
    int64_arrays(-3, 3, 120),
    int64_arrays(-(2**63), 2**63 - 1, 40),
)


class TestBuildSide:
    @given(r=join_keys, s=join_keys, data=st.data())
    @settings(max_examples=200, deadline=None)
    def test_probing_every_piece_sums_to_the_one_shot_join(self, r, s, data):
        """Build once on R, probe with S split at arbitrary (possibly
        repeated, so empty-piece) cut points: the sum is the whole join."""
        cuts = sorted(data.draw(st.lists(st.integers(0, len(s)), max_size=6)))
        held = BuildSide(r)
        acc = JoinAccumulator()
        for piece in np.split(s, cuts):
            acc.add(held.probe(piece))
        whole = acc.result()
        assert whole == hash_join(r, s)
        assert whole == hash_join(s, r)
        assert whole == nested_loop_join(r, s)


class TestAccumulator:
    def test_counts_mini_joins(self):
        acc = JoinAccumulator()
        acc.add(JoinResult(1, 5))
        acc.add(JoinResult(2, 6))
        assert acc.mini_joins == 2
        assert acc.result() == JoinResult(3, 11)


class TestReferenceJoin:
    def test_on_relations(self, small_r, small_s):
        result = reference_join(small_r, small_s)
        assert result == hash_join(small_r.keys, small_s.keys)
        assert result.n_pairs > 0
