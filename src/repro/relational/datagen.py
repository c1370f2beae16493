"""Seeded synthetic workload generators.

The paper evaluates on synthetic relations (Section 6).  These generators
produce relations by target size in MB (the unit the paper reports), with
several key distributions:

* ``uniform_relation`` — keys uniform over a key space; the paper's default
  and the distribution under which Grace hash buckets are equal-sized.
* ``zipf_relation`` — skewed keys, used by our ablation benchmarks to probe
  the paper's uniform-hash assumption.
* ``fk_pk_pair`` — a primary-key R and a foreign-key S referencing it, the
  classic data-mining fact/dimension shape the introduction motivates.
* ``self_join_relation`` — duplicate-heavy keys for output-size stress.
"""

from __future__ import annotations

import numpy as np

from repro.relational.relation import Relation
from repro.relational.schema import Schema
from repro.storage.block import BlockSpec


def _tuple_count(size_mb: float, tuple_bytes: int, spec: BlockSpec) -> int:
    count = round(spec.blocks_from_mb(size_mb) * spec.tuples_per_block(tuple_bytes))
    if count < 1:
        raise ValueError(f"relation of {size_mb} MB holds no {tuple_bytes}-byte tuples")
    return count


def uniform_relation(
    name: str,
    size_mb: float,
    tuple_bytes: int = 2048,
    key_space: int | None = None,
    seed: int = 0,
    spec: BlockSpec | None = None,
) -> Relation:
    """A relation with keys drawn uniformly from ``[0, key_space)``.

    ``key_space`` defaults to 4× the tuple count, giving a realistic mix
    of matching and non-matching keys between two such relations.
    """
    spec = spec or BlockSpec()
    count = _tuple_count(size_mb, tuple_bytes, spec)
    if key_space is None:
        key_space = 4 * count
    if key_space < 1:
        raise ValueError(f"key_space must be >= 1, got {key_space}")
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, key_space, size=count, dtype=np.int64)
    return Relation(name, Schema(name, tuple_bytes), keys, spec)


def zipf_relation(
    name: str,
    size_mb: float,
    tuple_bytes: int = 2048,
    key_space: int | None = None,
    skew: float = 1.2,
    seed: int = 0,
    spec: BlockSpec | None = None,
) -> Relation:
    """A relation with Zipf-skewed keys (``skew`` > 1)."""
    if skew <= 1.0:
        raise ValueError(f"zipf skew must be > 1, got {skew}")
    spec = spec or BlockSpec()
    count = _tuple_count(size_mb, tuple_bytes, spec)
    if key_space is None:
        key_space = 4 * count
    if key_space < 1:
        raise ValueError(f"key_space must be >= 1, got {key_space}")
    rng = np.random.default_rng(seed)
    ranks = rng.zipf(skew, size=count).astype(np.int64)
    # Fold the unbounded Zipf ranks into the key space, then scramble so
    # hot keys are not clustered at small values.
    keys = (ranks * np.int64(2654435761)) % np.int64(key_space)
    return Relation(name, Schema(name, tuple_bytes), keys, spec)


def fk_pk_pair(
    r_name: str,
    s_name: str,
    r_size_mb: float,
    s_size_mb: float,
    tuple_bytes: int = 2048,
    match_fraction: float = 1.0,
    seed: int = 0,
    spec: BlockSpec | None = None,
) -> tuple[Relation, Relation]:
    """A primary-key relation R and a foreign-key relation S.

    R's keys are distinct; each S tuple references a random R key with
    probability ``match_fraction`` (otherwise a key outside R's domain),
    so the join selectivity is directly controllable.
    """
    if not 0.0 <= match_fraction <= 1.0:
        raise ValueError(f"match_fraction must be in [0, 1], got {match_fraction}")
    spec = spec or BlockSpec()
    r_count = _tuple_count(r_size_mb, tuple_bytes, spec)
    s_count = _tuple_count(s_size_mb, tuple_bytes, spec)
    rng = np.random.default_rng(seed)
    r_keys = rng.permutation(r_count).astype(np.int64)
    refs = rng.integers(0, r_count, size=s_count, dtype=np.int64)
    s_keys = r_keys[refs]
    misses = rng.random(s_count) >= match_fraction
    # Non-matching foreign keys live above R's key domain.
    s_keys[misses] = r_count + rng.integers(0, max(r_count, 1), size=int(misses.sum()))
    schema = Schema("fkpk", tuple_bytes)
    return (
        Relation(r_name, schema, r_keys, spec),
        Relation(s_name, schema, s_keys, spec),
    )


def self_join_relation(
    name: str,
    size_mb: float,
    tuple_bytes: int = 2048,
    duplicates: int = 8,
    seed: int = 0,
    spec: BlockSpec | None = None,
) -> Relation:
    """A relation where every key value appears ~``duplicates`` times."""
    if duplicates < 1:
        raise ValueError(f"duplicates must be >= 1, got {duplicates}")
    spec = spec or BlockSpec()
    count = _tuple_count(size_mb, tuple_bytes, spec)
    distinct = max(1, count // duplicates)
    rng = np.random.default_rng(seed)
    keys = rng.integers(0, distinct, size=count, dtype=np.int64)
    return Relation(name, Schema(name, tuple_bytes), keys, spec)
