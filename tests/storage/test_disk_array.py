"""Disk array: placement policies, bursts, coalesced reads, tombstones."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def burst_of(n_blocks, tpb=10, start=0):
    """``chunk_of``'s keys and blocks, as a burst write carries them."""
    chunk = chunk_of(n_blocks, tpb, start)
    return chunk.keys, chunk.n_blocks


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
        assert len(extent.chunks) == 0

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
            array.write_burst([(a, *burst_of(1.0)), (b, *burst_of(2.0, start=50))]),
        )
        assert len(placed) == 2
        assert placed[0] in a.chunks
        assert placed[1] in b.chunks
        assert a.n_blocks == pytest.approx(1.0)
        assert b.n_blocks == pytest.approx(2.0)

    def test_read_chunks_consumes_selected(self, sim, array):
        extent = array.allocate("data")
        placed = run(
            sim,
            array.write_burst(
                [(extent, *burst_of(1.0, start=i * 100)) for i in range(4)]
            ),
        )
        data = run(sim, array.read_chunks(extent, [placed[1], placed[3]]))
        assert data.n_tuples == 20
        assert extent.n_blocks == pytest.approx(2.0)
        assert len(extent.chunks) == 2

    def test_read_chunk_twice_raises(self, sim, array):
        extent = array.allocate("data")
        placed = run(sim, array.write_burst([(extent, *burst_of(1.0))]))
        run(sim, array.read_chunk(extent, placed[0]))
        with pytest.raises(Exception):
            run(sim, array.read_chunk(extent, placed[0]))

    def test_read_coalesced_respects_max_blocks(self, sim, array):
        extent = array.allocate("data")
        run(
            sim,
            array.write_burst(
                [(extent, *burst_of(2.0, start=i * 100)) for i in range(5)]
            ),
        )
        piece = run(sim, array.read_coalesced(extent, max_blocks=5.0))
        assert piece.n_blocks == pytest.approx(4.0)  # two whole chunks fit
        assert extent.n_blocks == pytest.approx(6.0)

    def test_read_coalesced_takes_at_least_one(self, sim, array):
        extent = array.allocate("data")
        run(sim, array.write_burst([(extent, *burst_of(4.0))]))
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
                        (extent, *burst_of(0.1, tpb=100, start=round_index * 1000 + j))
                        for j in range(30)
                    ]
                ),
            )
            run(sim, array.read_chunks(extent, placed[:29]))
            survivors.append(placed[29])
        assert len(extent.chunks) == 40
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


# -- burst placement against a reference copy of the placement rule ----------

_EPS = 1e-9


class _ReferenceDisks:
    """Per-disk used, peak and written floats, advanced the way
    ``Disk._reserve`` and a burst write advance them."""

    def __init__(self, capacities, used):
        self.cap = list(capacities)
        self.used = list(used)
        self.peak = list(used)
        self.written = [0.0] * len(capacities)

    def free(self, i):
        return self.cap[i] - self.used[i]


def _proportional(ref, disks, n_blocks, total_free):
    return [(i, n_blocks * ref.free(i) / total_free) for i in disks if ref.free(i) > 0]


def _reference_place(ref, disks, rr, n_blocks, threshold_blocks):
    """The disk array's placement rule for one chunk, as first written:
    even stripe for large chunks (proportional when a member is short),
    else the member with the most free space, scanning from the extent's
    round-robin start so the first maximum wins a tie.  Returns the
    placement and the extent's next round-robin counter."""
    if n_blocks >= threshold_blocks * len(disks) and len(disks) > 1:
        share = n_blocks / len(disks)
        if all(ref.free(i) + _EPS >= share for i in disks):
            return [(i, share) for i in disks], rr
        total_free = sum(ref.free(i) for i in disks)
        if total_free + _EPS >= n_blocks:
            return _proportional(ref, disks, n_blocks, total_free), rr
    start = rr % len(disks)
    ordered = disks[start:] + disks[:start]
    best = max(ordered, key=ref.free)
    if ref.free(best) + _EPS >= n_blocks:
        return [(best, n_blocks)], rr + 1
    total_free = sum(ref.free(i) for i in disks)
    if total_free <= 0:
        return [(best, n_blocks)], rr + 1
    return _proportional(ref, disks, n_blocks, total_free), rr + 1


def _reference_burst(ref, extents, rr, burst, threshold_blocks):
    """Placements of ``burst`` and the failing (chunk, disk), if any."""
    placements = []
    for index, (extent, n_blocks) in enumerate(burst):
        placement, rr[extent] = _reference_place(
            ref, extents[extent], rr[extent], n_blocks, threshold_blocks
        )
        placements.append(placement)
        for i, blocks in placement:
            if ref.used[i] + blocks > ref.cap[i] + _EPS:
                return placements, (index, i)
            ref.used[i] += blocks
            ref.peak[i] = max(ref.peak[i], ref.used[i])
            ref.written[i] += blocks
    return placements, None


def _burst(array, writes):
    """``write_burst``'s argument for ``(extent, n_blocks)`` writes."""
    return array.write_burst(
        [(extent, np.empty(0, dtype=np.int64), n_blocks) for extent, n_blocks in writes]
    )


_FULLNESS = st.one_of(
    st.floats(0.0, 0.5), st.floats(0.0, 1.0), st.floats(0.9, 1.0), st.just(1.0)
)


@st.composite
def _placement_cases(draw):
    n_disks = draw(st.integers(1, 4))
    capacities = draw(st.lists(st.floats(10.0, 120.0), min_size=n_disks, max_size=n_disks))
    used = [cap * draw(_FULLNESS) for cap in capacities]
    extents = draw(st.lists(
        st.permutations(range(n_disks)).flatmap(
            lambda order: st.integers(1, len(order)).map(lambda k: list(order[:k]))
        ),
        min_size=1, max_size=3,
    ))
    # Chunk sizes straddle the stripe threshold (8 blocks per member disk).
    sizes = st.one_of(st.floats(0.01, 8.0), st.floats(8.0, 40.0), st.sampled_from([8.0, 16.0]))
    bursts = draw(st.lists(
        st.lists(st.tuples(st.integers(0, len(extents) - 1), sizes), min_size=1, max_size=8),
        min_size=1, max_size=3,
    ))
    return capacities, used, extents, bursts


@given(case=_placement_cases())
@settings(max_examples=300, deadline=None)
def test_burst_placement_matches_the_reference_rule(case):
    from repro.simulator.process import ProcessCrash
    from repro.storage.disk import DiskFullError

    capacities, used, extent_disks, bursts = case
    sim = Simulator()
    bus = Bus(sim, "scsi")
    disks = [
        Disk(sim, f"d{i}", bus, BlockSpec(), capacity_blocks=cap)
        for i, cap in enumerate(capacities)
    ]
    for disk, blocks in zip(disks, used):
        disk.used_blocks = disk.peak_used_blocks = blocks
    array = DiskArray(sim, disks, stripe_threshold_blocks=8.0)
    extents = [
        array.allocate(f"e{k}", disks=[disks[i] for i in members])
        for k, members in enumerate(extent_disks)
    ]
    ref = _ReferenceDisks(capacities, used)
    rr = [0] * len(extents)
    for burst in bursts:
        expected, failure = _reference_burst(ref, extent_disks, rr, burst, 8.0)
        writes = [(extents[extent], n_blocks) for extent, n_blocks in burst]
        if failure is None:
            placed = run(sim, _burst(array, writes))
            assert [
                [(disks.index(disk), blocks) for disk, blocks in handle.placement]
                for handle in placed
            ] == expected
        else:
            with pytest.raises((DiskFullError, ProcessCrash)) as caught:
                run(sim, _burst(array, writes))
            error = caught.value
            if isinstance(error, ProcessCrash):
                error = error.__cause__
            assert isinstance(error, DiskFullError)
            assert str(error).startswith(f"disk d{failure[1]}:")
        assert [d.used_blocks for d in disks] == ref.used
        assert [d.peak_used_blocks for d in disks] == ref.peak
        assert [d.write_blocks for d in disks] == ref.written
        if failure is not None:
            break
