"""Bucket-overflow (spill) handling for skewed keys.

The paper assumes "hash values are uniformly distributed, that is, the
hash buckets for R are equal-sized".  Real data is often skewed; every
Grace-Hash method (the four of Table 2 and the STAGE-GH baseline)
handles an oversized R bucket through the shared bucket join, probing
it in memory-sized pieces against a re-read S bucket — slower, but
correct and within the M budget.
"""

import numpy as np
import pytest

from repro.core.baselines import BASELINES
from repro.core.registry import ALL_METHODS
from repro.core.spec import JoinSpec
from repro.relational.datagen import uniform_relation, zipf_relation
from repro.relational.join_core import reference_join
from repro.relational.relation import Relation
from repro.storage.block import BlockSpec

SPILL_METHODS = ("DT-GH", "CDT-GH", "CTT-GH", "TT-GH", "STAGE-GH")

_METHODS = {method.symbol: method for method in ALL_METHODS + BASELINES}


def method_by_symbol(symbol):
    """Look up a Table 2 method or a baseline by symbol."""
    return _METHODS[symbol]


def disk_blocks(symbol, default):
    """STAGE-GH stages both relations: it needs D >= 2(|R| + |S|)."""
    return 1000.0 if symbol == "STAGE-GH" else default


def rebuilt(relation, keys):
    """``relation`` with new ``keys``: a relation's own keys are read-only."""
    return Relation(relation.name, relation.tuple_bytes, keys, relation.spec)


def hot_key_pair():
    """R with a hot key holding ~30 % of its tuples — one bucket is far
    larger than the 0.5 M share."""
    rng = np.random.default_rng(81)
    n = 2560
    keys = rng.integers(0, 4 * n, size=n)
    keys[: int(0.3 * n)] = 7_777  # the hot key
    r = Relation("R", 2048, keys, BlockSpec())
    s = uniform_relation("S", 20.0, tuple_bytes=2048, seed=82, key_space=4 * n)
    # Make sure some S tuples hit the hot key too.
    s_keys = s.keys.copy()
    s_keys[:50] = 7_777
    return r, rebuilt(s, s_keys)


@pytest.fixture(scope="module")
def skewed_pair():
    return hot_key_pair()


class TestSpillPath:
    @pytest.mark.parametrize("symbol", SPILL_METHODS)
    def test_skewed_join_is_correct_and_spills(self, symbol, skewed_pair):
        r, s = skewed_pair
        spec = JoinSpec(
            r, s, memory_blocks=8.0, disk_blocks=disk_blocks(symbol, 140.0)
        )
        stats = method_by_symbol(symbol).run(spec)
        assert stats.output == reference_join(r, s)
        assert stats.overflow_buckets > 0
        assert stats.peak_memory_blocks <= spec.memory_blocks + 1e-6

    @pytest.mark.parametrize("symbol", SPILL_METHODS)
    def test_uniform_data_never_spills(self, symbol, small_r, small_s):
        spec = JoinSpec(
            small_r, small_s, memory_blocks=10.0,
            disk_blocks=disk_blocks(symbol, 130.0),
        )
        stats = method_by_symbol(symbol).run(spec)
        assert stats.overflow_buckets == 0

    def test_zipf_relation_joins_correctly(self):
        """The ablation workload that used to crash with a
        MemoryBudgetError now completes and verifies."""
        r = zipf_relation("R", 10.0, tuple_bytes=2048, skew=1.3, seed=63)
        s = uniform_relation("S", 60.0, tuple_bytes=2048, seed=62,
                             key_space=4 * r.n_tuples)
        spec = JoinSpec(r, s, memory_blocks=20.0, disk_blocks=260.0)
        stats = method_by_symbol("CDT-GH").run(spec)
        assert stats.output == reference_join(r, s)
        assert stats.overflow_buckets > 0

    def test_spilling_costs_more_than_uniform(self, skewed_pair, small_r, small_s):
        """The spill path re-reads S buckets, so skew shows up as extra
        disk traffic relative to a uniform join of the same sizes."""
        r, s = skewed_pair
        skewed = method_by_symbol("CDT-GH").run(
            JoinSpec(r, s, memory_blocks=8.0, disk_blocks=140.0)
        )
        uniform = method_by_symbol("CDT-GH").run(
            JoinSpec(small_r, small_s, memory_blocks=8.0, disk_blocks=140.0)
        )
        assert skewed.disk_read_blocks > uniform.disk_read_blocks


class TestTapeTapePrefetch:
    def test_adjacent_large_buckets_are_not_prefetched_together(self):
        """TT-GH prefetches bucket b+1 while joining bucket b.  Two
        adjacent buckets that each fit in M but not together must not
        be resident at once: the second is fetched after the first is
        released, and neither spills."""
        from repro.core.base import GraceHashLayout
        from repro.relational.hashing import bucket_ids

        rng = np.random.default_rng(5)
        n = 2560
        keys = rng.integers(0, 4 * n, size=n)
        r = Relation("R", 2048, keys, BlockSpec())
        s = uniform_relation("S", 20.0, tuple_bytes=2048, seed=82, key_space=4 * n)
        n_buckets = GraceHashLayout(JoinSpec(r, s, 8.0, 140.0)).n_buckets
        candidates = np.arange(100_000, 200_000)
        ids = bucket_ids(candidates, n_buckets)
        first, second = candidates[ids == 3][0], candidates[ids == 4][0]
        hot = int(4.5 * r.tuples_per_block)  # 4.5 of M=8 blocks each
        keys[:hot] = first
        keys[hot:2 * hot] = second
        r = rebuilt(r, keys)
        s_keys = s.keys.copy()
        s_keys[:20] = first
        s_keys[20:40] = second
        s = rebuilt(s, s_keys)
        spec = JoinSpec(r, s, memory_blocks=8.0, disk_blocks=140.0)
        stats = method_by_symbol("TT-GH").run(spec)
        assert stats.output == reference_join(r, s)
        assert stats.overflow_buckets == 0
        assert stats.peak_memory_blocks <= spec.memory_blocks + 1e-6
