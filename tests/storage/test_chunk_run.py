"""Tape files and disk extents keep their content in one ordered run.

* A repeated slice of a run is the same chunk until the content changes,
  on tape as on disk.
* Chunks leave a run in any order; the survivors keep write order.
* A chunk is stored in a run at most once.
"""

import numpy as np
import pytest

from repro.storage.block import BlockSpec, DataChunk
from repro.storage.bus import Bus
from repro.storage.disk import Disk
from repro.storage.disk_array import DiskArray
from repro.storage.tape import TapeVolume


@pytest.fixture
def array(sim):
    bus = Bus(sim, "scsi")
    return DiskArray(sim, [Disk(sim, "d0", bus, BlockSpec(), capacity_blocks=100.0)])


def chunk_of(n_blocks, start, tpb=10):
    return DataChunk.from_keys(np.arange(start, start + round(n_blocks * tpb)), tpb)


def test_a_tape_files_repeated_slice_is_the_same_chunk_until_an_append():
    volume = TapeVolume("v", capacity_blocks=100.0)
    tape_file = volume.create_file("a")
    tape_file._append(chunk_of(4.0, 0))
    first = tape_file.slice_range(0.0, 4.0)
    assert tape_file.slice_range(0.0, 4.0) is first
    assert not first.keys.flags.writeable  # shared, so never written

    tape_file._append(chunk_of(4.0, 100))
    assert tape_file._memo is None
    both = tape_file.slice_range(0.0, 8.0)
    assert list(both.keys) == list(range(40)) + list(range(100, 140))
    assert tape_file.slice_range(0.0, 8.0) is both


def test_out_of_order_burials_leave_the_survivors_in_write_order(sim, array):
    extent = array.allocate("x")
    burst = sim.process(
        array.write_burst([(extent, np.arange(i * 10, i * 10 + 5), 0.5) for i in range(8)])
    )
    sim.run(burst)
    placed = burst.value
    extent._bury([placed[5]])
    extent._bury([placed[0], placed[3]])
    sim.run(sim.process(array.read_chunks(extent, [placed[6]])))

    survivors = [placed[i] for i in (1, 2, 4, 7)]
    assert list(extent.chunks) == survivors
    assert extent.n_blocks == pytest.approx(2.0)
    assert array.used_blocks == pytest.approx(2.0)
    assert list(extent.slice_range(0.0, 2.0).keys) == [
        key for chunk in survivors for key in chunk.keys
    ]
    with pytest.raises(ValueError, match="not stored"):
        extent._bury([placed[5]])


def test_a_chunk_is_stored_in_a_run_at_most_once():
    volume = TapeVolume("v", capacity_blocks=100.0)
    tape_file = volume.create_file("a")
    chunk = chunk_of(4.0, 0)
    tape_file._append(chunk)
    with pytest.raises(ValueError, match="already stored"):
        tape_file._append(chunk)
    assert tape_file.n_blocks == 4.0
    assert list(tape_file.chunks) == [chunk]


class TestSliceMemo:
    def test_a_repeated_slice_is_the_same_chunk(self, sim, array):
        extent = array.allocate("x")
        sim.run(sim.process(array.write(extent, chunk_of(4.0, 0))))
        first = extent.slice_range(0.0, 4.0)
        assert extent.slice_range(0.0, 4.0) is first
        assert not first.keys.flags.writeable  # shared, so never written
        assert extent.slice_range(1.0, 2.0) is not first

    def test_no_slice_outlives_a_write_a_bury_or_a_clear(self, sim, array):
        extent = array.allocate("x")
        sim.run(sim.process(array.write(extent, chunk_of(4.0, 0))))
        assert list(extent.slice_range(0.0, 4.0).keys) == list(range(40))

        sim.run(sim.process(array.write(extent, chunk_of(4.0, 100))))
        both = extent.slice_range(0.0, 8.0)
        assert list(both.keys) == list(range(40)) + list(range(100, 140))
        assert both.n_blocks == 8.0

        first = next(iter(extent.chunks))
        extent._bury([first])
        assert list(extent.slice_range(0.0, 4.0).keys) == list(range(100, 140))

        array.discard_content(extent)
        assert extent.slice_range(0.0, 0.0).n_tuples == 0
        sim.run(sim.process(array.write(extent, chunk_of(4.0, 200))))
        assert list(extent.slice_range(0.0, 4.0).keys) == list(range(200, 240))

    def test_free_drops_the_memo(self, sim, array):
        extent = array.allocate("x")
        sim.run(sim.process(array.write(extent, chunk_of(4.0, 0))))
        extent.slice_range(0.0, 4.0)
        array.free(extent)
        assert extent._memo is None
