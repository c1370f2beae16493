"""BucketStager's ``buckets`` filter keeps exactly the wanted buckets' keys."""

import types

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import BucketStager
from repro.relational.hashing import BucketIndex, bucket_ids, partition_keys


def staged_buckets(keys: np.ndarray, n_buckets: int, buckets) -> dict[int, np.ndarray]:
    """Stage ``keys`` through a filtered stager; the flushed bucket keys."""
    flushed: dict[int, np.ndarray] = {}

    def flush_burst(writes):
        for bucket, keys, n_blocks in writes:
            assert n_blocks == len(keys) / 4
            flushed[bucket] = keys
        return
        yield  # pragma: no cover - generator shape

    layout = types.SimpleNamespace(n_buckets=n_buckets)
    cuts = [0, len(keys) // 3, 2 * len(keys) // 3, len(keys)]
    reads = list(zip(cuts, cuts[1:]))
    stager = BucketStager(
        layout, BucketIndex(keys, n_buckets), 4, flush_burst, reads,
        buckets=buckets, threshold_blocks=1e9,
    )
    for _ in reads:
        for _ in stager.add_read():
            pass
    for _ in stager.drain():
        pass
    return flushed


def expected_buckets(keys: np.ndarray, n_buckets: int, buckets) -> dict[int, np.ndarray]:
    """The filter rule as a set lookup: keep keys whose bucket is wanted."""
    kept = keys[np.isin(bucket_ids(keys, n_buckets), sorted(buckets))]
    pool, ends, _ = partition_keys(kept, n_buckets)
    parts = [pool[lo:hi] for lo, hi in zip([0, *ends[:-1]], ends)]
    return {bucket: part for bucket, part in enumerate(parts) if len(part)}


def assert_same(actual: dict, expected: dict) -> None:
    assert sorted(actual) == sorted(expected)
    for bucket, keys in expected.items():
        np.testing.assert_array_equal(actual[bucket], keys)


@given(
    keys=st.lists(st.integers(-(2**63), 2**63 - 1), max_size=100).map(
        lambda xs: np.array(xs, dtype=np.int64)
    ),
    data=st.data(),
)
@settings(max_examples=150, deadline=None)
def test_filter_matches_the_set_rule(keys, data):
    n_buckets = data.draw(st.integers(1, 12))
    buckets = data.draw(st.one_of(
        st.just(set()), st.just(set(range(n_buckets))), st.sets(st.integers(0, n_buckets - 1)),
    ))
    assert_same(staged_buckets(keys, n_buckets, buckets),
                expected_buckets(keys, n_buckets, buckets))
