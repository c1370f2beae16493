"""Hash partitioning for Grace Hash Join.

The paper assumes "hash values are uniformly distributed, that is, the hash
buckets for R are equal-sized" (Section 5.1.2).  We use a Fibonacci
multiplicative hash, which spreads both sequential and uniform keys evenly
across buckets; the property tests check the balance assumption and the
correctness invariant that both relations route equal keys to equal
buckets.
"""

from __future__ import annotations

import numpy as np

#: 64-bit golden-ratio multiplier (Knuth's multiplicative hashing).
_FIB = np.uint64(0x9E3779B97F4A7C15)
_HIGH_BITS = np.uint64(32)


def _hash_buckets(keys: np.ndarray, n_buckets: int, salt: int) -> np.ndarray:
    """:func:`bucket_ids` as ``uint32`` (every id is below 2**32)."""
    if n_buckets < 1:
        raise ValueError(f"n_buckets must be >= 1, got {n_buckets}")
    hashed = np.asarray(keys, dtype=np.int64).astype(np.uint64)
    if salt:
        hashed += np.uint64(salt)
    hashed *= _FIB
    # Take high-order bits: the top of a multiplicative hash is the
    # well-mixed part.
    hashed >>= _HIGH_BITS
    ids = hashed.astype(np.uint32)
    # Freed before the next temporary: a fresh large allocation costs
    # more than the arithmetic.
    del hashed
    if n_buckets < 2**32:
        # ids % n as ids - (ids // n) * n: numpy divides an unsigned
        # array by a scalar with a multiply and shifts, several times
        # faster than its remainder.
        divisor = np.uint32(n_buckets)
        quotient = ids // divisor
        quotient *= divisor
        ids -= quotient
    return ids


def bucket_ids(keys: np.ndarray, n_buckets: int, salt: int = 0) -> np.ndarray:
    """Bucket index in ``[0, n_buckets)`` for each key.

    Deterministic in (key, n_buckets, salt): every join method partitioning
    with the same parameters routes a key to the same bucket.
    """
    return _hash_buckets(keys, n_buckets, salt).astype(np.int64)


def partition_keys(
    keys: np.ndarray, n_buckets: int, salt: int = 0
) -> tuple[np.ndarray, list[int], np.ndarray]:
    """Group ``keys`` by hash bucket: ``(sorted_keys, ends, order)``.

    ``sorted_keys`` holds the keys stably sorted by bucket, so each
    bucket keeps its keys' relative order; bucket *b* is the slice
    ``sorted_keys[ends[b - 1]:ends[b]]`` (from 0 for *b* = 0), possibly
    empty.  ``ends`` is a plain list of ``n_buckets`` end offsets, so a
    caller takes each bucket as a view without splitting the array.
    ``order`` holds each sorted key's position in ``keys``.
    """
    keys = np.asarray(keys, dtype=np.int64)
    n_keys = len(keys)
    # Sort each key's bucket times the length plus its position: the
    # values are distinct, so any sort yields the stable order by bucket,
    # in place and with no index array beside it.
    dtype = np.min_scalar_type(n_buckets * max(n_keys, 1))
    order = _hash_buckets(keys, n_buckets, salt).astype(dtype, copy=False)
    order *= dtype.type(n_keys)
    order += np.arange(n_keys, dtype=dtype)
    order.sort()
    ends = np.searchsorted(
        order, np.arange(1, n_buckets + 1, dtype=dtype) * dtype.type(n_keys)
    ).tolist()
    sorted_keys = np.empty(n_keys, dtype=np.int64)
    lo = 0
    for bucket, hi in enumerate(ends):
        if hi > lo:
            order[lo:hi] -= bucket * n_keys
            np.take(keys, order[lo:hi], out=sorted_keys[lo:hi])
        lo = hi
    return sorted_keys, ends, order


class BucketIndex:
    """A relation's keys grouped by hash bucket, looked up by position.

    Built with one :func:`partition_keys` call.  ``keys`` holds the
    relation's keys stably sorted by bucket (read-only) and ``ends`` the
    bucket end offsets.  ``tags`` holds each sorted key's position in
    the relation plus its bucket times the relation's length, so it
    increases across the whole index: one ``searchsorted`` finds, for
    any buckets and any position ranges, the slices of ``keys`` that
    hold those buckets' tuples from those ranges, in relation order.
    That is 12 bytes per key (an 8-byte key and a 4-byte tag) while
    ``n_buckets`` times the length stays below 2**32.
    """

    __slots__ = ("keys", "ends", "tags", "n_keys")

    def __init__(self, keys: np.ndarray, n_buckets: int):
        sorted_keys, ends, order = partition_keys(keys, n_buckets)
        n_keys = len(sorted_keys)
        sorted_keys.flags.writeable = False
        # The positions become the tags in place: no second array.
        for bucket in range(1, n_buckets):
            order[ends[bucket - 1]:ends[bucket]] += bucket * n_keys
        self.keys = sorted_keys
        self.ends = ends
        self.tags = order
        self.n_keys = n_keys

    def counts(self) -> np.ndarray:
        """Number of keys in each bucket."""
        return np.diff(self.ends, prepend=0)

    def cuts(self, buckets: list[int], positions: list[int]) -> np.ndarray:
        """Offsets into ``keys``, one row per position, one column per bucket.

        Entry ``[i, k]`` is where bucket ``buckets[k]``'s keys at
        positions from ``positions[i]`` on begin, so ``keys[c[i, k]:c[j, k]]``
        holds its keys at positions in ``[positions[i], positions[j])``,
        in relation order, and a row's sum is a prefix count: how many of
        the buckets' keys lie below the position.  One ``searchsorted``.
        """
        needles = np.asarray(positions, dtype=np.int64)[:, None] + (
            np.asarray(buckets, dtype=np.int64) * self.n_keys
        )
        return np.searchsorted(self.tags, needles.astype(self.tags.dtype))
