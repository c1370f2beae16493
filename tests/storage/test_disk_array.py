"""Disk array: placement policies, bursts, coalesced reads, tombstones."""

import numpy as np
import pytest

from repro.simulator.engine import Simulator
from repro.storage.block import BlockSpec, DataChunk
from repro.storage.bus import Bus
from repro.storage.disk import Disk
from repro.storage.disk_array import DiskArray


@pytest.fixture
def array(sim):
    bus = Bus(sim, "scsi")
    disks = [
        Disk(sim, f"d{i}", bus, BlockSpec(), capacity_blocks=100.0) for i in range(2)
    ]
    return DiskArray(sim, disks, stripe_threshold_blocks=8.0)


def run(sim, gen):
    return sim.run(sim.process(gen))


def chunk_of(n_blocks, tpb=10, start=0):
    return DataChunk.from_keys(np.arange(start, start + round(n_blocks * tpb)), tpb)


class TestPlacement:
    def test_large_chunks_split_across_disks(self, sim, array):
        extent = array.allocate("big")
        run(sim, array.write(extent, chunk_of(20.0)))
        used = [d.used_blocks for d in array.disks]
        assert used[0] == pytest.approx(10.0)
        assert used[1] == pytest.approx(10.0)

    def test_small_chunks_go_to_emptiest_disk(self, sim, array):
        extent = array.allocate("small")
        for i in range(4):
            run(sim, array.write(extent, chunk_of(2.0, start=i * 100)))
        used = [d.used_blocks for d in array.disks]
        assert used[0] == pytest.approx(4.0)
        assert used[1] == pytest.approx(4.0)

    def test_fragmented_space_splits_proportionally(self, sim, array):
        # Fill disks unevenly, then write a chunk no single disk can hold.
        a = array.allocate("a", disks=[array.disks[0]])
        run(sim, array.write(a, chunk_of(97.0)))
        b = array.allocate("b", disks=[array.disks[1]])
        run(sim, array.write(b, chunk_of(96.0)))
        c = array.allocate("c")
        run(sim, array.write(c, chunk_of(6.0)))  # 3 + 4 free, 6 needed
        assert array.used_blocks == pytest.approx(199.0)

    def test_split_path_respects_full_member(self, sim, array):
        # One disk nearly full: a threshold-sized chunk must not be split
        # evenly onto it.
        filler = array.allocate("filler", disks=[array.disks[0]])
        run(sim, array.write(filler, chunk_of(95.0)))
        extent = array.allocate("x")
        run(sim, array.write(extent, chunk_of(18.0)))  # even split would need 9+9
        assert array.used_blocks == pytest.approx(113.0)

    def test_duplicate_name_rejected(self, array):
        array.allocate("x")
        with pytest.raises(ValueError):
            array.allocate("x")

    def test_empty_array_rejected(self, sim):
        with pytest.raises(ValueError):
            DiskArray(sim, [])


class TestReadPaths:
    def test_read_all_consume(self, sim, array):
        extent = array.allocate("data")
        run(sim, array.write(extent, chunk_of(20.0)))
        data = run(sim, array.read_all(extent, consume=True))
        assert data.n_tuples == 200
        assert array.used_blocks == pytest.approx(0.0)
        assert extent.n_chunks == 0

    def test_read_all_peek_keeps_content(self, sim, array):
        extent = array.allocate("data")
        run(sim, array.write(extent, chunk_of(20.0)))
        run(sim, array.read_all(extent))
        assert extent.n_blocks == pytest.approx(20.0)

    def test_read_range_slices_logically(self, sim, array):
        extent = array.allocate("data")
        run(sim, array.write(extent, chunk_of(10.0)))
        piece = run(sim, array.read_range(extent, 5.0, 5.0))
        np.testing.assert_array_equal(piece.keys, np.arange(50, 100))

    def test_read_next_fifo(self, sim, array):
        extent = array.allocate("data")
        run(sim, array.write(extent, chunk_of(2.0)))
        run(sim, array.write(extent, chunk_of(2.0, start=500)))
        first = run(sim, array.read_next(extent))
        assert first.keys[0] == 0

    def test_read_next_empty_raises(self, sim, array):
        extent = array.allocate("data")
        with pytest.raises(Exception):
            run(sim, array.read_next(extent))

    def test_read_parallel_uses_both_arms(self, sim, array):
        extent = array.allocate("data")
        run(sim, array.write(extent, chunk_of(70.0)))  # 35 blocks per disk
        start = sim.now
        run(sim, array.read_all(extent))
        elapsed = sim.now - start
        # 3.5 MB per disk at 3.5 MB/s in parallel: ~1 s, not ~2 s.
        assert elapsed == pytest.approx(
            1.0 + array.disks[0].params.positioning_s, rel=0.05
        )


class TestBurstsAndChunks:
    def test_write_burst_returns_handles_in_order(self, sim, array):
        a, b = array.allocate("a"), array.allocate("b")
        placed = run(
            sim,
            array.write_burst([(a, chunk_of(1.0)), (b, chunk_of(2.0, start=50))]),
        )
        assert len(placed) == 2
        assert placed[0].extent is a
        assert placed[1].extent is b
        assert a.n_blocks == pytest.approx(1.0)
        assert b.n_blocks == pytest.approx(2.0)

    def test_read_chunks_consumes_selected(self, sim, array):
        extent = array.allocate("data")
        placed = run(
            sim,
            array.write_burst(
                [(extent, chunk_of(1.0, start=i * 100)) for i in range(4)]
            ),
        )
        data = run(sim, array.read_chunks(extent, [placed[1], placed[3]]))
        assert data.n_tuples == 20
        assert extent.n_blocks == pytest.approx(2.0)
        assert extent.n_chunks == 2

    def test_read_chunk_twice_raises(self, sim, array):
        extent = array.allocate("data")
        placed = run(sim, array.write_burst([(extent, chunk_of(1.0))]))
        run(sim, array.read_chunk(extent, placed[0]))
        with pytest.raises(Exception):
            run(sim, array.read_chunk(extent, placed[0]))

    def test_read_coalesced_respects_max_blocks(self, sim, array):
        extent = array.allocate("data")
        run(
            sim,
            array.write_burst(
                [(extent, chunk_of(2.0, start=i * 100)) for i in range(5)]
            ),
        )
        piece = run(sim, array.read_coalesced(extent, max_blocks=5.0))
        assert piece.n_blocks == pytest.approx(4.0)  # two whole chunks fit
        assert extent.n_blocks == pytest.approx(6.0)

    def test_read_coalesced_takes_at_least_one(self, sim, array):
        extent = array.allocate("data")
        run(sim, array.write_burst([(extent, chunk_of(4.0))]))
        piece = run(sim, array.read_coalesced(extent, max_blocks=1.0))
        assert piece.n_blocks == pytest.approx(4.0)

    def test_read_coalesced_empty_returns_empty(self, sim, array):
        extent = array.allocate("data")
        piece = run(sim, array.read_coalesced(extent, max_blocks=10.0))
        assert piece.n_tuples == 0

    def test_tombstone_compaction_preserves_content(self, sim, array):
        # Write and selectively consume many chunks to force compaction.
        extent = array.allocate("data")
        survivors = []
        for round_index in range(40):
            placed = run(
                sim,
                array.write_burst(
                    [
                        (extent, chunk_of(0.1, tpb=100, start=round_index * 1000 + j))
                        for j in range(30)
                    ]
                ),
            )
            run(sim, array.read_chunks(extent, placed[:29]))
            survivors.append(placed[29])
        assert extent.n_chunks == 40
        total = run(sim, array.read_all(extent, consume=True))
        assert total.n_tuples == 40 * 10
        assert array.used_blocks == pytest.approx(0.0, abs=1e-6)

    def test_free_releases_everything(self, sim, array):
        extent = array.allocate("data")
        run(sim, array.write(extent, chunk_of(12.0)))
        array.free(extent)
        assert array.used_blocks == pytest.approx(0.0)
        with pytest.raises(ValueError):
            array.free(extent)
