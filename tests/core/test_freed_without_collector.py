"""A finished join's simulator and storage graph needs no cyclic collector.

Reference counting alone must free the simulator, the disks, buses and
their units, the disk array and its extents once a join returns: a cycle
among them would keep every extent's chunk keys (and any slice memo)
alive until the collector happens to run.
"""

import gc

import pytest

from repro.api import run_join
from repro.core.spec import JoinSpec

#: Types that must never be left in a reference cycle by a join.
GRAPH_TYPES = {"Simulator", "Disk", "Bus", "Unit", "DiskArray", "StripedExtent"}


@pytest.fixture
def collector_off():
    """Disable the collector; yield a function collecting what it finds."""
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()

    def cyclic_garbage_types():
        gc.set_debug(gc.DEBUG_SAVEALL)
        try:
            gc.collect()
            return {type(obj).__name__ for obj in gc.garbage}
        finally:
            gc.set_debug(0)
            gc.garbage.clear()

    try:
        yield cyclic_garbage_types
    finally:
        if was_enabled:
            gc.enable()


def test_grace_hash_joins_leave_no_cycles(collector_off, small_r, small_s):
    for symbol in ("CDT-GH", "CTT-GH", "DT-GH", "TT-GH"):
        spec = JoinSpec(small_r, small_s, memory_blocks=10.0, disk_blocks=520.0)
        stats = run_join(spec, method=symbol)
        assert stats.output.n_pairs > 0
    assert not GRAPH_TYPES & collector_off()
