"""``JoinStats.chunks_placed`` counts every chunk the disk array stores."""

import pytest

from repro.api import run_join
from repro.core.registry import ALL_METHODS
from repro.core.spec import JoinSpec
from repro.hsm.cache import PartitionCache
from repro.storage.disk_array import DiskArray
from repro.sweep.serialize import stats_to_dict


@pytest.fixture
def seen(monkeypatch):
    """Chunks passed to ``write``, ``install`` and ``write_burst``."""
    count = [0]
    write, install, write_burst = DiskArray.write, DiskArray.install, DiskArray.write_burst

    def counting_write(array, extent, chunk):
        count[0] += 1
        return write(array, extent, chunk)

    def counting_install(array, extent, chunk):
        count[0] += 1
        return install(array, extent, chunk)

    def counting_write_burst(array, writes):
        count[0] += len(writes)
        return write_burst(array, writes)

    monkeypatch.setattr(DiskArray, "write", counting_write)
    monkeypatch.setattr(DiskArray, "install", counting_install)
    monkeypatch.setattr(DiskArray, "write_burst", counting_write_burst)
    return count


@pytest.mark.parametrize("symbol", [method.symbol for method in ALL_METHODS])
def test_counts_the_chunks_the_array_stores(symbol, seen, small_r, small_s):
    spec = JoinSpec(small_r, small_s, memory_blocks=10.0, disk_blocks=520.0)
    stats = run_join(spec, method=symbol)
    assert stats.chunks_placed == seen[0]
    if symbol.endswith("GH"):
        assert stats.chunks_placed > 0
    assert "chunks_placed" not in stats_to_dict(stats)


def test_counts_installed_chunks(seen, small_r, small_s):
    cache = PartitionCache(capacity_blocks=200.0)
    spec = JoinSpec(
        small_r, small_s, memory_blocks=10.0, disk_blocks=520.0, partition_cache=cache
    )
    cold = run_join(spec, method="DT-GH")
    assert cold.chunks_placed == seen[0]
    seen[0] = 0
    warm = run_join(spec, method="DT-GH")
    assert warm.cache_hits == 1
    assert warm.chunks_placed == seen[0] > 0
