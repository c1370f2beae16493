"""Index-driven bucket flushes equal partitioning each staged pool.

A Grace-Hash join groups each relation by bucket once
(:class:`~repro.relational.hashing.BucketIndex`), and every scan stages
the tuple ranges of its reads (:class:`~repro.core.base.BucketStager`).
The flushes must be exactly those of staging the reads' keys and
running :func:`~repro.relational.hashing.partition_keys` on each full
pool: same flush points, same buckets in the same order, the same key
bytes and the same block counts.
"""

import types

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.base import BucketStager
from repro.relational.datagen import zipf_relation
from repro.relational.hashing import BucketIndex, bucket_ids, partition_keys
from repro.storage.block import DataChunk, slice_chunks, tuple_range


def drive(generator) -> None:
    for _ in generator:
        pass


def index_flushes(keys, n_buckets, reads, buckets, threshold_tuples, tpb):
    """Flushes of a stager fed the tuple ranges ``reads``, in order."""
    flushes = []

    def flush_burst(writes):
        flushes.append([(b, k.tobytes(), n) for b, k, n in writes])
        return
        yield  # pragma: no cover - generator shape

    layout = types.SimpleNamespace(n_buckets=n_buckets)
    stager = BucketStager(
        layout, BucketIndex(keys, n_buckets), tpb, flush_burst, reads,
        buckets=buckets, threshold_blocks=threshold_tuples / tpb,
    )
    for _ in reads:
        drive(stager.add_read())
    drive(stager.drain())
    return flushes


def pool_flushes(keys, n_buckets, reads, buckets, threshold_tuples, tpb):
    """The same staging with each read's keys and one ``partition_keys``
    per flush of the staged pool."""
    flushes, staged = [], []

    def flush():
        pool = np.concatenate(staged)
        staged.clear()
        sorted_keys, ends, _ = partition_keys(pool, n_buckets)
        writes, lo = [], 0
        for bucket, hi in enumerate(ends):
            if hi > lo:
                writes.append((bucket, sorted_keys[lo:hi].tobytes(), (hi - lo) / tpb))
            lo = hi
        flushes.append(writes)

    total = 0
    for first, last in reads:
        piece = keys[first:last]
        if buckets is not None:
            piece = piece[np.isin(bucket_ids(piece, n_buckets), sorted(buckets))]
        if len(piece) == 0:
            continue
        staged.append(piece)
        total += len(piece)
        if total >= threshold_tuples:
            flush()
            total = 0
    if total:
        flush()
    return flushes


def uniform_keys(draw_data, n):
    space = draw_data.draw(st.integers(1, 4 * n + 1), label="key space")
    seed = draw_data.draw(st.integers(0, 2**16), label="seed")
    return np.random.default_rng(seed).integers(0, space, size=n)


def zipf_keys(draw_data, n):
    seed = draw_data.draw(st.integers(0, 2**16), label="seed")
    relation = zipf_relation("Z", 1.0, tuple_bytes=2048, skew=1.3, seed=seed)
    return relation.keys[:n]


@given(data=st.data())
@settings(max_examples=200, deadline=None)
def test_index_flushes_equal_pool_partitioning(data):
    n = data.draw(st.integers(1, 400), label="tuples")
    keys = data.draw(st.sampled_from([uniform_keys, zipf_keys]), label="keys")(data, n)
    n = len(keys)
    n_buckets = data.draw(st.integers(1, 9), label="buckets")
    cuts = sorted(set(data.draw(st.lists(st.integers(0, n), max_size=12), label="cuts")))
    bounds = [0, *[c for c in cuts if 0 < c < n], n]
    reads = list(zip(bounds, bounds[1:]))
    if data.draw(st.booleans(), label="reverse"):
        reads.reverse()
    buckets = data.draw(
        st.one_of(st.none(), st.sets(st.integers(0, n_buckets - 1))), label="filter"
    )
    threshold = data.draw(st.integers(1, n + 1), label="threshold tuples")
    tpb = data.draw(st.sampled_from([1, 3, 8]), label="tuples per block")
    args = (keys, n_buckets, reads, buckets, threshold, tpb)
    assert index_flushes(*args) == pool_flushes(*args)


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_tuple_range_names_the_sliced_tuples(data):
    """``tuple_range`` of a block range is where ``slice_chunks``' keys
    sit in the chunks' concatenation."""
    sizes = data.draw(st.lists(st.integers(1, 30), min_size=1, max_size=6), label="sizes")
    widths = data.draw(
        st.lists(st.floats(0.1, 5.0), min_size=len(sizes), max_size=len(sizes)),
        label="blocks",
    )
    keys = np.arange(sum(sizes), dtype=np.int64)
    chunks, start = [], 0
    for size, width in zip(sizes, widths):
        chunks.append(DataChunk(keys[start:start + size], width))
        start += size
    total = sum(c.n_blocks for c in chunks)
    offset = data.draw(st.floats(0.0, total), label="offset")
    length = data.draw(st.floats(0.0, total - offset), label="length")
    first, last = tuple_range(chunks, offset, length)
    sliced = slice_chunks(chunks, total, offset, length).keys
    np.testing.assert_array_equal(sliced, keys[first:last])


def test_index_is_twelve_bytes_per_key():
    """An 8-byte key and a 4-byte tag while buckets times keys < 2**32."""
    keys = np.random.default_rng(3).integers(0, 10**9, size=307_200)
    index = BucketIndex(keys, 16)
    assert index.keys.nbytes + index.tags.nbytes == 12 * len(keys)
    assert not index.keys.flags.writeable
