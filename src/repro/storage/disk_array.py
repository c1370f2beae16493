"""Multi-disk array with explicit block placement.

Section 4 of the paper notes that an ordinary RAID stripe is not enough for
interleaved double-buffering: the join needs "finer control over the
placement of disk blocks and usage of disk arms".  This array provides it:

* small chunk appends (bucket flushes) go to the disk with the most free
  space — which both balances occupancy against the hard per-disk capacity
  and alternates arms between successive writes;
* large requests are split across all member disks and executed in
  parallel, delivering the aggregate bandwidth ``X_D`` of the model; each
  per-disk part is one device op run as callbacks, with no process per disk;
* burst operations simulate a run of small requests (hash bucket flushes,
  fragment reads) as one disk op whose delay charges every reposition.

Content lives only here, tracked logically per extent; a
:class:`~repro.storage.disk.Disk` holds no content, only space and an arm.
Space and time are accounted physically per disk, so occupancy and traffic
remain exact.  The :class:`StripedExtent` object is also the positioning
identity on each member disk: an arm that last served the extent streams
on without a seek.  Chunk removal uses tombstones with lazy compaction:
experiments create hundreds of thousands of bucket fragments, and eager
list removal would be quadratic.
"""

from __future__ import annotations

import typing

from repro.simulator.engine import Simulator
from repro.simulator.events import Event
from repro.storage.block import DataChunk, slice_chunks
from repro.storage.disk import Disk

#: Compact an extent's chunk list once this many tombstones accumulate
#: (and they are the majority).
_COMPACT_THRESHOLD = 512


class _PlacedChunk:
    """A logical chunk plus the per-disk blocks it occupies."""

    __slots__ = ("data", "placement", "extent", "alive")

    def __init__(self, data: DataChunk, placement: list[tuple[Disk, float]], extent):
        self.data = data
        self.placement = placement
        self.extent = extent
        self.alive = True


class StripedExtent:
    """A named allocation spanning the disks of a :class:`DiskArray`."""

    def __init__(self, array: "DiskArray", name: str, disks: list[Disk]):
        self.array = array
        self.name = name
        self.disks = list(disks)
        self.chunks: list[_PlacedChunk] = []
        self.n_blocks = 0.0
        self._n_dead = 0
        self._rr = 0

    # -- chunk bookkeeping -----------------------------------------------------

    def live_chunks(self) -> typing.Iterator[_PlacedChunk]:
        """All stored (non-tombstoned) chunks, oldest first."""
        return (pc for pc in self.chunks if pc.alive)

    @property
    def n_chunks(self) -> int:
        """Number of stored chunks."""
        return len(self.chunks) - self._n_dead

    @property
    def n_tuples(self) -> int:
        """Total tuples currently stored in the extent."""
        return sum(pc.data.n_tuples for pc in self.live_chunks())

    def _bury(self, placed: _PlacedChunk) -> None:
        """Tombstone one chunk and release its disk space."""
        if not placed.alive or placed.extent is not self:
            raise ValueError(f"chunk not stored in extent {self.name!r}")
        placed.alive = False
        self._n_dead += 1
        self.n_blocks -= placed.data.n_blocks
        for disk, blocks in placed.placement:
            disk._release(blocks)
        if self._n_dead >= _COMPACT_THRESHOLD and self._n_dead * 2 >= len(self.chunks):
            self.chunks = [pc for pc in self.chunks if pc.alive]
            self._n_dead = 0

    def _clear(self) -> None:
        """Drop every chunk, releasing all space."""
        for pc in self.live_chunks():
            for disk, blocks in pc.placement:
                disk._release(blocks)
        self.chunks = []
        self._n_dead = 0
        self.n_blocks = 0.0

    def peek_all(self) -> DataChunk:
        """All content without consuming it."""
        return DataChunk.concat([pc.data for pc in self.live_chunks()])

    def slice_range(self, offset_blocks: float, n_blocks: float) -> DataChunk:
        """Tuples in the logical block range [offset, offset + n_blocks)."""
        return slice_chunks(
            [pc.data for pc in self.live_chunks()], self.n_blocks, offset_blocks, n_blocks
        )

    def _place(self, n_blocks: float) -> list[tuple[Disk, float]]:
        """Choose disks for a new chunk of ``n_blocks`` blocks.

        Large chunks are split over all member disks (parallel transfer);
        small chunks go whole to the disk with the most free space, which
        both balances occupancy against the hard per-disk capacity and
        alternates arms between successive writes — the "balance the
        consumption of bandwidth and storage space" routine of Section 4.
        """
        threshold = self.array.stripe_threshold_blocks * len(self.disks)
        if n_blocks >= threshold and len(self.disks) > 1:
            share = n_blocks / len(self.disks)
            if all(d.free_blocks + 1e-9 >= share for d in self.disks):
                return [(disk, share) for disk in self.disks]
            # Uneven occupancy: stripe proportionally to free space so a
            # nearly-full member does not reject a chunk the array as a
            # whole can hold.
            total_free = sum(d.free_blocks for d in self.disks)
            if total_free + 1e-9 >= n_blocks:
                return [
                    (d, n_blocks * d.free_blocks / total_free)
                    for d in self.disks
                    if d.free_blocks > 0
                ]
        n = len(self.disks)
        start = self._rr % n
        self._rr += 1
        ordered = self.disks[start:] + self.disks[:start]
        disk = max(ordered, key=lambda d: d.free_blocks)
        if disk.free_blocks + 1e-9 >= n_blocks:
            return [(disk, n_blocks)]
        # No single disk can hold the chunk (free space is fragmented):
        # split it proportionally to what each disk has left.
        total_free = sum(d.free_blocks for d in self.disks)
        if total_free <= 0:
            return [(disk, n_blocks)]  # let the reserve raise DiskFullError
        return [
            (d, n_blocks * d.free_blocks / total_free)
            for d in self.disks
            if d.free_blocks > 0
        ]


class DiskArray:
    """The set of disks available to a join, with striping helpers."""

    def __init__(self, sim: Simulator, disks: list[Disk], stripe_threshold_blocks: float = 8.0):
        if not disks:
            raise ValueError("array needs at least one disk")
        self.sim = sim
        self.disks = list(disks)
        self.stripe_threshold_blocks = stripe_threshold_blocks
        self.extents: dict[str, StripedExtent] = {}

    # -- aggregate statistics --------------------------------------------------

    @property
    def n_disks(self) -> int:
        """Number of member disks."""
        return len(self.disks)

    @property
    def capacity_blocks(self) -> float:
        """Total capacity across member disks."""
        return sum(d.capacity_blocks for d in self.disks)

    @property
    def used_blocks(self) -> float:
        """Blocks currently in use across member disks."""
        return sum(d.used_blocks for d in self.disks)

    @property
    def peak_used_blocks(self) -> float:
        """Sum of per-disk peak occupancies (a conservative peak)."""
        return sum(d.peak_used_blocks for d in self.disks)

    @property
    def read_blocks(self) -> float:
        """Total blocks read from the array."""
        return sum(d.read_blocks for d in self.disks)

    @property
    def write_blocks(self) -> float:
        """Total blocks written to the array."""
        return sum(d.write_blocks for d in self.disks)

    # -- allocation --------------------------------------------------------------

    def allocate(self, name: str, disks: list[Disk] | None = None) -> StripedExtent:
        """Create a striped extent on ``disks`` (default: all members)."""
        if name in self.extents:
            raise ValueError(f"striped extent {name!r} already exists")
        extent = StripedExtent(self, name, disks or self.disks)
        self.extents[name] = extent
        return extent

    def free(self, extent: StripedExtent) -> None:
        """Drop an extent, releasing all of its per-disk space."""
        if self.extents.get(extent.name) is not extent:
            raise ValueError(f"striped extent {extent.name!r} not in this array")
        extent._clear()
        del self.extents[extent.name]

    # -- I/O (generators for ``yield from``; per-disk ops are callbacks) ----------

    def _fan_out(self, ops: list[tuple[Disk, typing.Any, float, int | None]], kind: str) -> Event:
        """Run one op per ``(disk, where, n_blocks, near)`` concurrently.

        The ops run as callbacks with the queue hops of one process per
        op joined by ``all_of``, since same-time ordering decides arm
        hand-off: they start one hop from now, and the event triggers
        two hops after the last one ends (one, for no ops).  The first
        failing op fails the event two hops after it ends; later
        failures are dropped, as the caller has already been told.
        """
        sim = self.sim
        done, left = sim.event(), len(ops)
        if not ops:
            return done.succeed()

        def op_done(failure: BaseException | None) -> None:
            nonlocal left
            if left > 0:
                left = left - 1 if failure is None else 0
                if not left:
                    if failure is None:
                        sim.defer(done.succeed)
                    else:
                        sim.defer(done.fail, failure)

        def start(_arg) -> None:
            for disk, where, blocks, near in ops:
                disk._start_io(where, blocks, kind, near, op_done)

        sim.defer(start)
        return done

    def _parallel_io(
        self, extent: StripedExtent, parts: list[tuple[Disk, float]], kind: str = "disk-read"
    ) -> typing.Generator:
        """Run one I/O on each (disk, blocks) pair concurrently."""
        if len(parts) == 1:
            disk, blocks = parts[0]
            yield from disk._io(extent, blocks, kind)
            return
        yield self._fan_out([(disk, extent, blocks, None) for disk, blocks in parts], kind)

    def write(self, extent: StripedExtent, chunk: DataChunk) -> typing.Generator:
        """Append ``chunk`` to the extent (placement per array policy)."""
        placement = extent._place(chunk.n_blocks)
        for disk, blocks in placement:
            disk._reserve(blocks)
            disk.write_blocks += blocks
        yield from self._parallel_io(extent, placement, "disk-write")
        extent.chunks.append(_PlacedChunk(chunk, placement, extent))
        extent.n_blocks += chunk.n_blocks

    def install(self, extent: StripedExtent, chunk: DataChunk) -> None:
        """Place already-disk-resident content: space, but no I/O.

        The HSM partition cache (``repro.hsm``) restores cached bucket
        extents through this path.  Placement and capacity accounting
        are exactly a write's — the blocks genuinely occupy disks — but
        no simulated time passes and no traffic is counted, because the
        data was left on disk by an earlier join rather than moved.

        Unlike a fresh write, the chunk is always striped evenly across
        the member disks: the producer's bucket flushes alternated arms
        and left the content spread over the array, so reads of the
        installed extent must keep the same parallelism even when the
        chunk is below the stripe threshold.
        """
        share = chunk.n_blocks / len(extent.disks)
        if all(d.free_blocks + 1e-9 >= share for d in extent.disks):
            placement = [(disk, share) for disk in extent.disks]
        else:
            placement = extent._place(chunk.n_blocks)
        for disk, blocks in placement:
            disk._reserve(blocks)
        extent.chunks.append(_PlacedChunk(chunk, placement, extent))
        extent.n_blocks += chunk.n_blocks

    def write_burst(
        self, writes: list[tuple[StripedExtent, DataChunk]]
    ) -> typing.Generator:
        """Append many small chunks (e.g. hash-bucket flushes) in one burst.

        Each chunk is placed per the array policy; per disk, the burst is
        simulated as one arm hold charging one full reposition plus a short
        reposition per additional request — the cost pattern of appending
        to many bucket locations inside one region.  Returns the placed
        chunk handles in write order.
        """
        per_disk: dict[Disk, tuple] = {}  # disk -> (last extent, blocks, near)
        placed_by_write = []
        for extent, chunk in writes:
            placement = extent._place(chunk.n_blocks)
            placed_by_write.append((extent, chunk, placement))
            for disk, blocks in placement:
                disk._reserve(blocks)
                disk.write_blocks += blocks
                _last, total, near = per_disk.get(disk, (None, 0.0, -1))
                per_disk[disk] = (extent, total + blocks, near + 1)
        if per_disk:
            yield self._fan_out([(disk, *op) for disk, op in per_disk.items()], "disk-write")
        placed_chunks = []
        for extent, chunk, placement in placed_by_write:
            placed = _PlacedChunk(chunk, placement, extent)
            extent.chunks.append(placed)
            extent.n_blocks += chunk.n_blocks
            placed_chunks.append(placed)
        return placed_chunks

    def read_chunks(
        self,
        extent: StripedExtent,
        placed_list: list[_PlacedChunk],
        consume: bool = True,
    ) -> typing.Generator:
        """Read a specific set of stored chunks as one burst.

        ``consume=False`` leaves the chunks (and their space) in place —
        the bucket-overflow path re-reads an S bucket once per R piece.
        """
        per_disk: dict[Disk, tuple[StripedExtent, float, int]] = {}
        for placed in placed_list:
            if not placed.alive or placed.extent is not extent:
                raise ValueError(f"chunk not stored in extent {extent.name!r}")
            for disk, blocks in placed.placement:
                _extent, total, near = per_disk.get(disk, (extent, 0.0, -1))
                per_disk[disk] = (extent, total + blocks, near + 1)
                disk.read_blocks += blocks
        if per_disk:
            yield self._fan_out([(disk, *op) for disk, op in per_disk.items()], "disk-read")
        data = DataChunk.concat([placed.data for placed in placed_list])
        if consume:
            for placed in placed_list:
                extent._bury(placed)
        return data

    def discard_content(self, extent: StripedExtent) -> None:
        """Drop an extent's content and release its space without I/O.

        Deallocating needs no data movement; used when a consumer has
        already read (peeked) everything it needed.
        """
        extent._clear()

    def read_coalesced(
        self, extent: StripedExtent, max_blocks: float
    ) -> typing.Generator:
        """Read and consume the oldest chunks, up to ``max_blocks`` total.

        Used to drain assembly extents through a bounded memory buffer.
        Returns an empty chunk when the extent is empty.
        """
        batch = []
        total = 0.0
        for placed in extent.live_chunks():
            if batch and total + placed.data.n_blocks > max_blocks + 1e-9:
                break
            batch.append(placed)
            total += placed.data.n_blocks
        if not batch:
            return DataChunk.empty()
        return (yield from self.read_chunks(extent, batch))

    def read_all(self, extent: StripedExtent, consume: bool = False) -> typing.Generator:
        """Read the full extent in parallel across its disks."""
        per_disk: dict[Disk, float] = {}
        for pc in extent.live_chunks():
            for disk, blocks in pc.placement:
                per_disk[disk] = per_disk.get(disk, 0.0) + blocks
        for disk, blocks in per_disk.items():
            disk.read_blocks += blocks
        data = extent.peek_all()
        yield from self._parallel_io(extent, list(per_disk.items()))
        if consume:
            extent._clear()
        return data

    def read_next(self, extent: StripedExtent) -> typing.Generator:
        """Read and consume the extent's oldest chunk."""
        for placed in extent.live_chunks():
            return (yield from self.read_chunks(extent, [placed]))
        raise ValueError(f"striped extent {extent.name!r} is empty")

    def read_chunk(self, extent: StripedExtent, placed: _PlacedChunk) -> typing.Generator:
        """Read and consume one specific stored chunk."""
        return (yield from self.read_chunks(extent, [placed]))

    def read_range(
        self, extent: StripedExtent, offset_blocks: float, n_blocks: float
    ) -> typing.Generator:
        """Sequential scan of a logical block range (parallel across disks)."""
        data = extent.slice_range(offset_blocks, n_blocks)
        share = n_blocks / len(extent.disks)
        parts = [(disk, share) for disk in extent.disks]
        for disk, blocks in parts:
            disk.read_blocks += blocks
        yield from self._parallel_io(extent, parts)
        return data
