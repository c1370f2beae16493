"""Every join method must produce exactly the reference join result.

This is the central correctness property of the reproduction: the seven
methods move real tuples through the simulated hierarchy, so their
accumulated (cardinality, checksum) must match an in-memory join on every
workload shape — uniform, primary/foreign key, duplicate-heavy, and
zero-selectivity.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.registry import ALL_METHODS, method_by_symbol, symbols
from repro.core.spec import JoinSpec
from repro.relational.datagen import fk_pk_pair, self_join_relation, uniform_relation
from repro.relational.join_core import reference_join
from repro.relational.relation import Relation
from repro.storage.block import BlockSpec

ALL_SYMBOLS = symbols()


def run_and_check(method_symbol, r, s, memory_blocks, disk_blocks, **kwargs):
    spec = JoinSpec(r, s, memory_blocks=memory_blocks, disk_blocks=disk_blocks, **kwargs)
    stats = method_by_symbol(method_symbol).run(spec)
    expected = reference_join(r, s)
    assert stats.output.n_pairs == expected.n_pairs, method_symbol
    assert stats.output.checksum == expected.checksum, method_symbol
    return stats


class TestUniformWorkload:
    @pytest.mark.parametrize("symbol", ALL_SYMBOLS)
    def test_produces_reference_join(self, symbol, small_r, small_s):
        run_and_check(symbol, small_r, small_s, memory_blocks=10.0, disk_blocks=120.0)

    @pytest.mark.parametrize("symbol", ALL_SYMBOLS)
    def test_with_large_memory(self, symbol, small_r, small_s):
        run_and_check(symbol, small_r, small_s, memory_blocks=45.0, disk_blocks=130.0)


class TestFkPkWorkload:
    @pytest.mark.parametrize("symbol", ALL_SYMBOLS)
    def test_partial_match(self, symbol):
        r, s = fk_pk_pair("r", "s", 4.0, 16.0, tuple_bytes=4096,
                          match_fraction=0.7, seed=21)
        run_and_check(symbol, r, s, memory_blocks=9.0, disk_blocks=100.0)


class TestDuplicateHeavyWorkload:
    @pytest.mark.parametrize("symbol", ALL_SYMBOLS)
    def test_many_duplicates(self, symbol):
        r = self_join_relation("r", 3.0, tuple_bytes=4096, duplicates=6, seed=31)
        s = self_join_relation("s", 12.0, tuple_bytes=4096, duplicates=6, seed=32)
        run_and_check(symbol, r, s, memory_blocks=8.0, disk_blocks=80.0)


class TestZeroSelectivity:
    @pytest.mark.parametrize("symbol", ALL_SYMBOLS)
    def test_disjoint_key_spaces(self, symbol):
        spec = BlockSpec()
        r = Relation("r", 4096, np.arange(0, 800), spec)
        s = Relation("s", 4096, np.arange(10_000, 13_000), spec)
        stats = run_and_check(symbol, r, s, memory_blocks=7.0, disk_blocks=80.0)
        assert stats.output.n_pairs == 0


class TestEqualSizedRelations:
    @pytest.mark.parametrize("symbol", ALL_SYMBOLS)
    def test_r_equals_s_size(self, symbol):
        r = uniform_relation("r", 6.0, tuple_bytes=4096, seed=41)
        s = uniform_relation("s", 6.0, tuple_bytes=4096, seed=42,
                             key_space=4 * r.n_tuples)
        run_and_check(symbol, r, s, memory_blocks=10.0, disk_blocks=140.0)


class TestPropertyBased:
    @given(
        r_mb=st.floats(min_value=1.0, max_value=6.0),
        s_over_r=st.floats(min_value=1.0, max_value=4.0),
        memory_fraction=st.floats(min_value=0.15, max_value=0.8),
        seed=st.integers(min_value=0, max_value=10_000),
        symbol=st.sampled_from(ALL_SYMBOLS),
    )
    @settings(max_examples=25, deadline=None)
    def test_random_configurations(self, r_mb, s_over_r, memory_fraction, seed, symbol):
        r = uniform_relation("r", r_mb, tuple_bytes=4096, seed=seed)
        s = uniform_relation(
            "s", r_mb * s_over_r, tuple_bytes=4096, seed=seed + 1,
            key_space=3 * r.n_tuples,
        )
        memory = max(max(2.0, np.sqrt(r.n_blocks) * 1.05), memory_fraction * r.n_blocks)
        memory = min(memory, r.n_blocks * 0.95)
        disk = 2.5 * r.n_blocks + 10.0
        run_and_check(symbol, r, s, memory_blocks=memory, disk_blocks=disk)
