"""In-memory join primitives and result verification.

Every tertiary join method decomposes the join into mini-joins of key
arrays that fit in memory.  The primitives here compute, for each
mini-join, the number of matching pairs and an order-independent checksum
over the matched pairs; partial results add up, so two methods computed the
same join if and only if their accumulated (count, checksum) agree with the
:func:`reference_join` of the inputs.
"""

from __future__ import annotations

import dataclasses

import numpy as np

_MIX = np.uint64(0x9E3779B97F4A7C15)
_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)


@dataclasses.dataclass(frozen=True)
class JoinResult:
    """Output cardinality plus an order-independent pair checksum."""

    n_pairs: int
    checksum: int

    def __add__(self, other: "JoinResult") -> "JoinResult":
        return JoinResult(
            self.n_pairs + other.n_pairs,
            (self.checksum + other.checksum) & 0xFFFFFFFFFFFFFFFF,
        )

    @classmethod
    def zero(cls) -> "JoinResult":
        """The identity for accumulation."""
        return cls(0, 0)


class JoinAccumulator:
    """Mutable sum of partial :class:`JoinResult` values."""

    def __init__(self):
        self.n_pairs = 0
        self.checksum = 0
        self.mini_joins = 0

    def add(self, partial: JoinResult) -> None:
        """Fold one mini-join's result into the total."""
        self.n_pairs += partial.n_pairs
        self.checksum = (self.checksum + partial.checksum) & 0xFFFFFFFFFFFFFFFF
        self.mini_joins += 1

    def result(self) -> JoinResult:
        """The accumulated join result."""
        return JoinResult(self.n_pairs, self.checksum)


class BuildSide:
    """The held side of a mini-join, built once and probed many times.

    Every method builds R and streams S past it: a Grace-Hash R bucket
    and its S bucket, the nested-block methods' disk copy of R and an
    S window, an R chunk and S from tape.  The build groups the held
    keys by distinct value once.  An R bucket or R copy is built once
    per join and reused by every Step II iteration, and each bucket unit
    or S window probes its keys in one call; probes add up, so one probe
    of concatenated pieces equals the sum of a probe per piece.  Each
    :meth:`probe` sorts its keys and binary searches them into the
    distinct keys (numpy's binary search is several times faster on
    sorted needles than on random ones, more than paying for the sort).
    Each distinct key ``k`` held ``c`` times carries the
    weight ``c * mix(k)``, so summing the weights of the matching streamed
    tuples gives the same checksum, mod 2^64, as summing
    ``c_r * c_s * mix(k)`` over keys.
    """

    def __init__(self, keys: np.ndarray):
        self.keys, counts = np.unique(np.asarray(keys, dtype=np.int64), return_counts=True)
        self.counts = counts.view(np.uint64)
        # uint64 array arithmetic wraps mod 2^64 without a warning.
        self.weights = self.keys.astype(np.uint64)
        self.weights *= _MIX
        self.weights *= self.counts

    def probe(self, keys: np.ndarray) -> JoinResult:
        """Join one streamed piece against the built side."""
        if len(self.keys) == 0 or len(keys) == 0:
            return JoinResult.zero()
        keys = np.array(keys, dtype=np.int64)
        keys.sort()
        idx = self.keys.searchsorted(keys)
        np.minimum(idx, len(self.keys) - 1, out=idx)
        idx = idx[self.keys[idx] == keys]
        return JoinResult(int(self.counts[idx].sum()), int(self.weights[idx].sum()))


def hash_join(r_keys: np.ndarray, s_keys: np.ndarray) -> JoinResult:
    """Equi-join two key arrays in one shot.

    For each key ``k`` appearing ``c_r`` times in R and ``c_s`` times in S,
    the join emits ``c_r * c_s`` pairs, each contributing ``mix(k)`` to the
    checksum (mod 2^64).  Builds on the larger input and probes with the
    smaller: grouping a side costs one sort, probing with it a sort plus
    a binary search per tuple.
    """
    if len(r_keys) < len(s_keys):
        r_keys, s_keys = s_keys, r_keys
    return BuildSide(r_keys).probe(s_keys)


def nested_loop_join(r_keys: np.ndarray, s_keys: np.ndarray) -> JoinResult:
    """Reference implementation used to validate :func:`hash_join`.

    Semantically the O(|R|·|S|) scan — every R tuple counts its matches in
    S — but computed tuple-at-a-time against a sorted copy of S, so the
    per-tuple probe is two binary searches instead of a full pass.  Unlike
    :func:`hash_join` it never groups by distinct key, which keeps the two
    implementations independent enough to cross-check each other.
    """
    r_keys = np.asarray(r_keys, dtype=np.int64)
    s_keys = np.asarray(s_keys, dtype=np.int64)
    if len(r_keys) == 0 or len(s_keys) == 0:
        return JoinResult.zero()
    s_sorted = np.sort(s_keys)
    lo = np.searchsorted(s_sorted, r_keys, side="left")
    hi = np.searchsorted(s_sorted, r_keys, side="right")
    matches = (hi - lo).astype(np.uint64)
    mixed = (r_keys.astype(np.uint64) * _MIX) & _MASK
    with np.errstate(over="ignore"):
        checksum = int(np.sum(matches * mixed, dtype=np.uint64))
    return JoinResult(int(matches.sum()), checksum)


def reference_join(relation_r, relation_s) -> JoinResult:
    """Ground-truth join of two relations, computed entirely in memory."""
    return hash_join(relation_r.keys, relation_s.keys)
