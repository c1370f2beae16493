"""Peek/discard primitives backing the bucket-overflow path."""

import numpy as np
import pytest

from repro.buffering.interleaved import InterleavedDiskBuffer
from repro.storage.block import BlockSpec, DataChunk
from repro.storage.bus import Bus
from repro.storage.disk import Disk
from repro.storage.disk_array import DiskArray


@pytest.fixture
def array(sim):
    bus = Bus(sim, "scsi")
    disks = [Disk(sim, f"d{i}", bus, BlockSpec(), 100.0) for i in range(2)]
    return DiskArray(sim, disks)


def chunk_of(n_blocks, start=0):
    return DataChunk.from_keys(np.arange(start, start + round(n_blocks * 10)), 10)


def run(sim, gen):
    return sim.run(sim.process(gen))


class TestPeekCoalesced:
    def test_peek_does_not_release_space(self, sim, array):
        buffer = InterleavedDiskBuffer(sim, array, "buf", 10.0)

        def flow():
            for i in range(3):
                yield from buffer.put(0, "s", chunk_of(2.0, start=i * 100))
            before = buffer.level_blocks
            data, cursor = yield from buffer.peek_coalesced(0, "s", 0, 4.0)
            assert data.n_blocks == pytest.approx(4.0)
            assert cursor == 2
            assert buffer.level_blocks == pytest.approx(before)
            # A second sweep from the cursor reaches the rest.
            data, cursor = yield from buffer.peek_coalesced(0, "s", cursor, 4.0)
            assert data.n_blocks == pytest.approx(2.0)
            assert cursor == 3
            data, cursor = yield from buffer.peek_coalesced(0, "s", cursor, 4.0)
            assert data is None

        run(sim, flow())

    def test_repeated_peeks_return_same_data(self, sim, array):
        buffer = InterleavedDiskBuffer(sim, array, "buf", 10.0)

        def flow():
            yield from buffer.put(0, "s", chunk_of(2.0))
            first, _ = yield from buffer.peek_coalesced(0, "s", 0, 10.0)
            second, _ = yield from buffer.peek_coalesced(0, "s", 0, 10.0)
            np.testing.assert_array_equal(first.keys, second.keys)

        run(sim, flow())

    def test_peek_charges_disk_reads(self, sim, array):
        buffer = InterleavedDiskBuffer(sim, array, "buf", 10.0)

        def flow():
            yield from buffer.put(0, "s", chunk_of(2.0))
            before = array.read_blocks
            yield from buffer.peek_coalesced(0, "s", 0, 10.0)
            yield from buffer.peek_coalesced(0, "s", 0, 10.0)
            assert array.read_blocks == pytest.approx(before + 4.0)

        run(sim, flow())


class TestDiscard:
    def test_discard_frees_without_reads(self, sim, array):
        buffer = InterleavedDiskBuffer(sim, array, "buf", 10.0)

        def flow():
            yield from buffer.put(0, "s", chunk_of(3.0))
            reads_before = array.read_blocks
            buffer.discard(0, "s")
            assert array.read_blocks == reads_before
            assert buffer.level_blocks == pytest.approx(0.0)
            buffer.end_iteration(0)
            buffer.finish_iteration(0)  # nothing left over

        run(sim, flow())

    def test_discard_unknown_tag_raises(self, sim, array):
        buffer = InterleavedDiskBuffer(sim, array, "buf", 10.0)
        with pytest.raises(KeyError):
            buffer.discard(0, "missing")



class TestTapeFileRangeReader:
    def test_spans_fragments(self, sim):
        from repro.core.tape_tape import read_files_range
        from repro.storage.tape import TapeDrive, TapeVolume

        drive = TapeDrive(sim, "t", Bus(sim, "b"), BlockSpec())
        volume = TapeVolume("v", 100.0)
        first = volume.create_file("f1")
        first._append(chunk_of(3.0))
        second = volume.create_file("f2")
        second._append(chunk_of(3.0, start=100))
        drive.load(volume)

        def flow():
            data = yield from read_files_range(drive, [first, second], 2.0, 2.0)
            np.testing.assert_array_equal(
                data.keys, np.concatenate([np.arange(20, 30), np.arange(100, 110)])
            )
            empty = yield from read_files_range(drive, [first, second], 6.0, 0.0)
            assert empty.n_tuples == 0

        run(sim, flow())
