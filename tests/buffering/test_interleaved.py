"""Interleaved double-buffered disk region (Section 4)."""

import numpy as np
import pytest

from repro.buffering.interleaved import InterleavedDiskBuffer
from repro.obs.recorder import JoinObserver
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


def burst_of(n_blocks, start=0):
    """``chunk_of``'s keys and blocks, as a burst write carries them."""
    chunk = chunk_of(n_blocks, start)
    return chunk.keys, chunk.n_blocks


def run(sim, gen):
    return sim.run(sim.process(gen))


class TestBasicFlow:
    def test_capacity_validation(self, sim, array):
        with pytest.raises(ValueError):
            InterleavedDiskBuffer(sim, array, "buf", 0.0)

    def test_put_take_round_trip(self, sim, array):
        buffer = InterleavedDiskBuffer(sim, array, "buf", 10.0)

        def flow():
            yield from buffer.put(0, "tag", chunk_of(3.0))
            assert buffer.level_blocks == pytest.approx(3.0)
            data = yield from buffer.pop_coalesced(0, "tag", max_blocks=10.0)
            assert data.n_tuples == 30
            assert not buffer.has_pending(0, "tag")
            assert buffer.level_blocks == pytest.approx(0.0)

        run(sim, flow())

    def test_put_many_registers_tags(self, sim, array):
        buffer = InterleavedDiskBuffer(sim, array, "buf", 10.0)

        def flow():
            yield from buffer.put_many(
                0, [("a", *burst_of(1.0)), ("b", *burst_of(2.0, start=50))]
            )
            assert buffer.has_pending(0, "a") and buffer.has_pending(0, "b")
            a = yield from buffer.pop_coalesced(0, "a", max_blocks=10.0)
            b = yield from buffer.pop_coalesced(0, "b", max_blocks=10.0)
            assert a.n_tuples == 10 and b.n_tuples == 20

        run(sim, flow())

    def test_single_chunk_pops_stream_until_none(self, sim, array):
        buffer = InterleavedDiskBuffer(sim, array, "buf", 10.0)

        def flow():
            for i in range(3):
                yield from buffer.put(0, "s", chunk_of(1.0, start=i * 100))
            starts = []
            while True:
                data = yield from buffer.pop_coalesced(0, "s", 0.0)
                if data is None:
                    break
                starts.append(int(data.keys[0]))
            assert starts == [0, 100, 200]

        run(sim, flow())

    def test_pop_coalesced_bounds_batch(self, sim, array):
        buffer = InterleavedDiskBuffer(sim, array, "buf", 20.0)

        def flow():
            yield from buffer.put_many(
                0, [("s", *burst_of(2.0, start=i * 100)) for i in range(5)]
            )
            first = yield from buffer.pop_coalesced(0, "s", max_blocks=5.0)
            assert first.n_blocks == pytest.approx(4.0)
            rest = yield from buffer.pop_coalesced(0, "s", max_blocks=100.0)
            assert rest.n_blocks == pytest.approx(6.0)
            done = yield from buffer.pop_coalesced(0, "s", max_blocks=5.0)
            assert done is None

        run(sim, flow())

    def test_oversized_put_rejected(self, sim, array):
        buffer = InterleavedDiskBuffer(sim, array, "buf", 2.0)

        def flow():
            yield from buffer.put(0, "x", chunk_of(3.0))

        with pytest.raises(Exception, match="exceeds buffer"):
            run(sim, flow())


class TestIterationProtocol:
    def test_wait_iteration_blocks_until_end(self, sim, array):
        buffer = InterleavedDiskBuffer(sim, array, "buf", 10.0)
        order = []

        def writer():
            yield sim.timeout(5.0)
            yield from buffer.put(0, "s", chunk_of(1.0))
            order.append("written")
            buffer.end_iteration(0)

        def reader():
            yield buffer.wait_iteration(0)
            order.append("woken")

        sim.process(writer())
        sim.process(reader())
        sim.run()
        assert order == ["written", "woken"]

    def test_finish_iteration_with_leftovers_raises(self, sim, array):
        buffer = InterleavedDiskBuffer(sim, array, "buf", 10.0)

        def flow():
            yield from buffer.put(0, "s", chunk_of(1.0))

        run(sim, flow())
        with pytest.raises(RuntimeError, match="unconsumed"):
            buffer.finish_iteration(0)

    def test_close_with_content_raises(self, sim, array):
        buffer = InterleavedDiskBuffer(sim, array, "buf", 10.0)

        def flow():
            yield from buffer.put(0, "s", chunk_of(1.0))

        run(sim, flow())
        with pytest.raises(RuntimeError, match="blocks buffered"):
            buffer.close()

    def test_close_releases_extent(self, sim, array):
        buffer = InterleavedDiskBuffer(sim, array, "buf", 10.0)
        buffer.close()
        assert "buf" not in array.extents


class TestBackpressureAndSharing:
    def test_writer_blocks_until_reader_frees(self, sim, array):
        """The defining Section 4 behaviour: iteration i+1 fills into the
        space released as iteration i is consumed."""
        buffer = InterleavedDiskBuffer(sim, array, "buf", 4.0)
        writer_done_at = []

        def writer():
            for i in range(2):
                for piece in range(4):
                    yield from buffer.put(i, "s", chunk_of(1.0, start=i * 1000 + piece))
                buffer.end_iteration(i)
            writer_done_at.append(sim.now)

        def reader():
            for i in range(2):
                yield buffer.wait_iteration(i)
                yield sim.timeout(10.0)  # simulate slow joining
                while True:
                    data = yield from buffer.pop_coalesced(i, "s", 0.0)
                    if data is None:
                        break
                buffer.finish_iteration(i)

        sim.process(writer())
        sim.process(reader())
        sim.run()
        # The writer could not have finished iteration 1 before the reader
        # started draining iteration 0 (which begins after t=10).
        assert writer_done_at[0] > 10.0

    def test_occupancy_ledger_by_parity(self, sim, array):
        observer = JoinObserver()
        buffer = InterleavedDiskBuffer(sim, array, "buf", 10.0, observer)

        def flow():
            yield from buffer.put(0, "s", chunk_of(2.0))
            yield from buffer.put(1, "s", chunk_of(3.0, start=500))

        run(sim, flow())
        total = observer.series["buf.total"]
        even = observer.series["buf.even"]
        odd = observer.series["buf.odd"]
        assert total.values[-1] == pytest.approx(5.0)
        assert even.values[-1] == pytest.approx(2.0)
        assert odd.values[-1] == pytest.approx(3.0)
        # total == even + odd at every sample
        for t, v in zip(total.times, total.values):
            assert v == pytest.approx(even.value_at(t) + odd.value_at(t))
