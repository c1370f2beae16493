"""Shared fixtures for the HSM partition-cache suite."""

import pytest

from repro.experiments.config import ExperimentScale
from repro.hsm.cache import PartitionCache, PartitionSetKey


@pytest.fixture
def scale() -> ExperimentScale:
    """The fast test scale used throughout the experiment suite."""
    return ExperimentScale(scale=0.05)


@pytest.fixture
def cache() -> PartitionCache:
    """A 100-block LRU cache, room for a handful of small sets."""
    return PartitionCache(capacity_blocks=100.0)


def set_key(name: str, n_buckets: int = 2) -> PartitionSetKey:
    """A cache key for tests that never touch real relations."""
    return PartitionSetKey(relation=name, n_buckets=n_buckets)


def buckets(total_blocks: float, n_buckets: int = 2):
    """A footprint-only bucket list summing to ``total_blocks``."""
    return [(total_blocks / n_buckets, None)] * n_buckets
