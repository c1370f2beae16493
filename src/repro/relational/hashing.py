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


def bucket_ids(keys: np.ndarray, n_buckets: int, salt: int = 0) -> np.ndarray:
    """Bucket index in ``[0, n_buckets)`` for each key.

    Deterministic in (key, n_buckets, salt): every join method partitioning
    with the same parameters routes a key to the same bucket.
    """
    if n_buckets < 1:
        raise ValueError(f"n_buckets must be >= 1, got {n_buckets}")
    hashed = np.asarray(keys, dtype=np.int64).astype(np.uint64)
    hashed += np.uint64(salt)
    hashed *= _FIB
    # Take high-order bits: the top of a multiplicative hash is the
    # well-mixed part.
    hashed >>= _HIGH_BITS
    hashed %= np.uint64(n_buckets)
    return hashed.astype(np.int64)


def partition_keys(
    keys: np.ndarray, n_buckets: int, salt: int = 0
) -> tuple[np.ndarray, list[int]]:
    """Group ``keys`` by hash bucket: ``(sorted_keys, ends)``.

    ``sorted_keys`` holds the keys stably sorted by bucket, so each
    bucket keeps its keys' relative order; bucket *b* is the slice
    ``sorted_keys[ends[b - 1]:ends[b]]`` (from 0 for *b* = 0), possibly
    empty.  ``ends`` is a plain list of ``n_buckets`` end offsets, so a
    caller takes each bucket as a view without splitting the array.
    """
    keys = np.asarray(keys, dtype=np.int64)
    # A stable order is unique, so the narrowest dtype changes nothing
    # but the speed: numpy radix-sorts integers of 16 bits or fewer.
    ids = bucket_ids(keys, n_buckets, salt).astype(np.min_scalar_type(n_buckets - 1))
    order = np.argsort(ids, kind="stable")
    ends = np.cumsum(np.bincount(ids, minlength=n_buckets)).tolist()
    return keys[order], ends
