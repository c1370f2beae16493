"""Minimal relational substrate: relations (join keys and their tuple
width), data generation, hash partitioning and in-memory join
primitives: :class:`BuildSide` groups a held key array once so each
streamed piece is one probe, and :func:`hash_join` is the one-shot form
of the same kernel.

Relations carry real join-key arrays so every tertiary join method produces
a verifiable result (output cardinality and an order-independent pair
checksum) in addition to its simulated timing.
"""

from repro.relational.relation import Relation
from repro.relational.datagen import (
    fk_pk_pair,
    self_join_relation,
    uniform_relation,
    zipf_relation,
)
from repro.relational.hashing import bucket_ids, partition_keys
from repro.relational.join_core import (
    BuildSide,
    JoinAccumulator,
    JoinResult,
    hash_join,
    nested_loop_join,
    reference_join,
)

__all__ = [
    "BuildSide",
    "JoinAccumulator",
    "JoinResult",
    "Relation",
    "bucket_ids",
    "fk_pk_pair",
    "hash_join",
    "nested_loop_join",
    "partition_keys",
    "reference_join",
    "self_join_relation",
    "uniform_relation",
    "zipf_relation",
]
