"""Core integration: Grace-Hash Step I against a warm partition cache.

A warm hit must skip the R tape read and the partition write entirely
(Step I takes zero simulated time), produce the identical join output,
and leave the cache-off path byte-untouched.
"""

import pytest

from repro.experiments.config import ExperimentScale
from repro.api import run_join
from repro.hsm.cache import PartitionCache

R_MB, S_MB = 18.0, 100.0
MEMORY_MB, DISK_MB = 9.0, 50.0


@pytest.fixture(scope="module")
def scale():
    return ExperimentScale(scale=0.05)


@pytest.fixture(scope="module")
def relations(scale):
    return scale.relations(R_MB, S_MB)


def _run(scale, relations, cache, symbol="DT-GH", verify=False):
    relation_r, relation_s = relations
    spec = scale.join_spec(
        relation_r,
        relation_s,
        memory_blocks=scale.blocks(MEMORY_MB),
        disk_blocks=scale.blocks(DISK_MB),
        partition_cache=cache,
    )
    return run_join(spec, method=symbol, verify=verify)


@pytest.mark.parametrize("symbol", ["DT-GH", "CDT-GH"])
def test_warm_hit_skips_the_tape_read(scale, relations, symbol):
    cache = PartitionCache(capacity_blocks=scale.blocks(DISK_MB))
    cold = _run(scale, relations, cache, symbol)
    warm = _run(scale, relations, cache, symbol, verify=True)

    assert cold.cache_misses == 1 and cold.cache_hits == 0
    assert warm.cache_hits == 1 and warm.cache_misses == 0
    assert warm.step1_s == 0.0
    assert warm.tape_r_read_blocks == 0.0
    assert warm.response_s < cold.response_s
    assert warm.cache_saved_blocks > 0
    assert warm.cache_saved_s > 0

    # The reused partition joins to the identical output (warm ran with
    # verify=True, so the in-memory reference join also agrees).
    assert warm.output.n_pairs == cold.output.n_pairs
    assert warm.output.checksum == cold.output.checksum


def test_a_miss_is_inert(scale, relations):
    """A cache-attached cold run costs exactly what a cache-less run does."""
    cache = PartitionCache(capacity_blocks=scale.blocks(DISK_MB))
    cold = _run(scale, relations, cache)
    bare = _run(scale, relations, cache=None)
    assert cold.response_s == bare.response_s
    assert cold.step1_s == bare.step1_s
    assert cold.output.checksum == bare.output.checksum


def test_different_relation_misses(scale, relations):
    """Content addressing: other bytes under the same sizes do not hit."""
    cache = PartitionCache(capacity_blocks=scale.blocks(DISK_MB))
    _run(scale, relations, cache)
    other = ExperimentScale(scale=0.05, seed=97).relations(R_MB, S_MB)
    stats = _run(scale, other, cache)
    assert stats.cache_hits == 0
    assert stats.cache_misses == 1


def test_cache_counters_serialize_only_when_a_cache_ran(scale, relations):
    cache = PartitionCache(capacity_blocks=scale.blocks(DISK_MB))
    _run(scale, relations, cache)
    warm = _run(scale, relations, cache)
    payload = warm.to_dict()
    assert payload["partition_cache"]["hits"] == 1

    bare = _run(scale, relations, cache=None)
    assert "partition_cache" not in bare.to_dict()


def test_hit_unpins_after_finalize(scale, relations):
    """The consumer's pin is released once its join has finished."""
    cache = PartitionCache(capacity_blocks=scale.blocks(DISK_MB))
    _run(scale, relations, cache)
    _run(scale, relations, cache)
    assert all(view.pins == 0 for view in cache.catalog.views())
