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
remain exact.  Each :class:`StripedExtent` has its own :class:`Region`,
the positioning identity on each member disk: an arm that last served
the extent streams on without a seek.  A disk keeps the region, not the
extent, and an extent keeps no reference to its array, so a finished
join's disks, extents and array form no reference cycle and are freed
without the cyclic collector.

Each stored chunk is one :class:`StoredChunk` handle: its keys (for a
bucket flush, usually a view into the join's bucket index), its block
count and the per-disk blocks it occupies.  An extent is a
:class:`~repro.storage.block.ChunkRun`, the store a tape file uses too.
A burst is placed in one loop (:meth:`DiskArray._store`), and its
handles join the extents they were written to once the write
completes.  Consuming a chunk takes it out of its extent, in O(1)
wherever it stands, and releases its space; a handle is stored in an
extent exactly while it is in the extent's run.  Callers such as the
interleaved buffer hold handles and read them in any order.
"""

from __future__ import annotations

import typing

import numpy as np

from repro.simulator.engine import Simulator
from repro.simulator.events import Event
from repro.storage.block import ChunkRun, DataChunk
from repro.storage.disk import Disk


class StoredChunk:
    """One chunk stored in a :class:`StripedExtent`."""

    __slots__ = ("keys", "n_blocks", "placement")

    def __init__(self, keys: np.ndarray, n_blocks: float, placement: list[tuple[Disk, float]]):
        self.keys = keys
        self.n_blocks = n_blocks
        self.placement = placement


def take_batch(chunks: typing.Iterable[StoredChunk], max_blocks: float) -> list[StoredChunk]:
    """The leading ``chunks`` up to ``max_blocks`` blocks in total, and at
    least one (none only if there are none): the batch of every
    coalesced read."""
    batch = []
    total = 0.0
    for chunk in chunks:
        if batch and total + chunk.n_blocks > max_blocks + 1e-9:
            break
        batch.append(chunk)
        total += chunk.n_blocks
    return batch


def _proportional(
    disks: list[Disk], n_blocks: float, total_free: float
) -> list[tuple[Disk, float]]:
    """Split ``n_blocks`` over ``disks`` in proportion to their free space."""
    return [(d, n_blocks * d.free_blocks / total_free) for d in disks if d.free_blocks > 0]


class Region:
    """Where an extent lies on its disks: the arm position a disk keeps.

    Disks compare positions by identity, so each extent has its own
    region.  It holds only the extent's name, so a disk's position keeps
    no extent, chunk or disk alive.
    """

    __slots__ = ("name",)

    def __init__(self, name: str):
        self.name = name


class StripedExtent(ChunkRun):
    """A named allocation spanning the disks of a :class:`DiskArray`."""

    def __init__(self, name: str, disks: list[Disk]):
        super().__init__(name)
        self.region = Region(name)
        self.disks = list(disks)
        self._rr = 0

    def _bury(self, chunks: list[StoredChunk]) -> None:
        """Take ``chunks`` out of the extent and release their disk space."""
        for chunk in chunks:
            self._remove(chunk)
            for disk, blocks in chunk.placement:
                disk._release(blocks)

    def _clear(self) -> None:
        """Drop every chunk, releasing all space."""
        for chunk in self.chunks:
            for disk, blocks in chunk.placement:
                disk._release(blocks)
        self.chunks = {}
        self.n_blocks = 0.0
        self._memo = None


class DiskArray:
    """The set of disks available to a join, with striping helpers."""

    def __init__(self, sim: Simulator, disks: list[Disk], stripe_threshold_blocks: float = 8.0):
        if not disks:
            raise ValueError("array needs at least one disk")
        self.sim = sim
        self.disks = list(disks)
        self.stripe_threshold_blocks = stripe_threshold_blocks
        self.extents: dict[str, StripedExtent] = {}
        #: Chunk handles stored so far (a program counter; see JoinStats).
        self.chunks_placed = 0

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
        extent = StripedExtent(name, disks or self.disks)
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
                        sim._schedule(done.succeed, None)
                    else:
                        sim._schedule(done.fail, failure)

        def start(_arg) -> None:
            for disk, where, blocks, near in ops:
                disk._start_io(where, blocks, kind, near, op_done)

        sim._schedule(start, None)
        return done

    def _parallel_io(
        self, extent: StripedExtent, parts: list[tuple[Disk, float]], kind: str = "disk-read"
    ) -> typing.Generator:
        """Run one I/O on each (disk, blocks) pair concurrently."""
        if len(parts) == 1:
            disk, blocks = parts[0]
            yield from disk._io(extent.region, blocks, kind)
            return
        yield self._fan_out(
            [(disk, extent.region, blocks, None) for disk, blocks in parts], kind
        )

    def _store(
        self, writes: list[tuple[StripedExtent, np.ndarray, float]], traffic: bool
    ) -> tuple[list[tuple[StripedExtent, StoredChunk]], dict[Disk, tuple[Region, float, int]]]:
        """Place and reserve each ``(extent, keys, n_blocks)`` write, in order.

        The array's one placement rule, the "balance the consumption of
        bandwidth and storage space" routine of Section 4: a chunk of at
        least the stripe threshold per member disk is split evenly over
        the extent's disks (in proportion to free space when a member is
        short); any other chunk goes whole to the member with the most
        free space, scanning from the extent's round-robin start so the
        first maximum wins a tie, or is split proportionally when no
        member can hold it.  Each write is reserved before the next is
        placed, so a full disk raises
        :class:`~repro.storage.disk.DiskFullError` at the chunk that
        overflows it.  ``traffic`` counts the blocks as written.

        Returns each write's extent and handle, not yet in the extent,
        and per disk the burst op ``(last extent's region, blocks, writes - 1)``.
        """
        threshold = self.stripe_threshold_blocks
        stored = []
        per_disk: dict[Disk, tuple[Region, float, int]] = {}
        for extent, keys, n_blocks in writes:
            disks = extent.disks
            n = len(disks)
            placement = None
            if n > 1 and n_blocks >= threshold * n:
                share = n_blocks / n
                if all(d.free_blocks + 1e-9 >= share for d in disks):
                    placement = [(disk, share) for disk in disks]
                else:
                    total_free = sum(d.free_blocks for d in disks)
                    if total_free + 1e-9 >= n_blocks:
                        placement = _proportional(disks, n_blocks, total_free)
            if placement is None:
                start = extent._rr % n
                extent._rr += 1
                best = disks[start]
                most = best.capacity_blocks - best.used_blocks
                for index in range(start + 1 - n, start):  # the rest, rotated
                    disk = disks[index]
                    free = disk.capacity_blocks - disk.used_blocks
                    if free > most:
                        best, most = disk, free
                if most + 1e-9 >= n_blocks:
                    placement = [(best, n_blocks)]
                else:
                    total_free = sum(d.free_blocks for d in disks)
                    if total_free <= 0:
                        placement = [(best, n_blocks)]  # the reserve raises
                    else:
                        placement = _proportional(disks, n_blocks, total_free)
            for disk, blocks in placement:
                disk._reserve(blocks)
                if traffic:
                    disk.write_blocks += blocks
                _last, total, near = per_disk.get(disk, (extent.region, 0.0, -1))
                per_disk[disk] = (extent.region, total + blocks, near + 1)
            stored.append((extent, StoredChunk(keys, n_blocks, placement)))
        return stored, per_disk

    def _keep(self, stored: list[tuple[StripedExtent, StoredChunk]]) -> None:
        """Add each placed chunk to the extent it was written to, in order."""
        for extent, chunk in stored:
            extent._add(chunk)
        self.chunks_placed += len(stored)

    def write(self, extent: StripedExtent, chunk: DataChunk) -> typing.Generator:
        """Append ``chunk`` to the extent (placement per array policy).

        Returns the stored chunk's handle.
        """
        stored, _ = self._store([(extent, chunk.keys, chunk.n_blocks)], traffic=True)
        placed = stored[0][1]
        yield from self._parallel_io(extent, placed.placement, "disk-write")
        self._keep(stored)
        return placed

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
            for disk, blocks in placement:
                disk._reserve(blocks)
            stored = [(extent, StoredChunk(chunk.keys, chunk.n_blocks, placement))]
        else:
            stored, _ = self._store([(extent, chunk.keys, chunk.n_blocks)], traffic=False)
        self._keep(stored)

    def write_burst(
        self, writes: list[tuple[StripedExtent, np.ndarray, float]]
    ) -> typing.Generator:
        """Append many small chunks (e.g. hash-bucket flushes) in one burst.

        ``writes`` holds ``(extent, keys, n_blocks)`` triples.  Each
        chunk is placed per the array policy; per disk, the burst is
        simulated as one arm hold charging one full reposition plus a short
        reposition per additional request — the cost pattern of appending
        to many bucket locations inside one region.  Returns the stored
        chunk handles in write order.
        """
        stored, per_disk = self._store(writes, traffic=True)
        if per_disk:
            yield self._fan_out([(disk, *op) for disk, op in per_disk.items()], "disk-write")
        self._keep(stored)
        return [chunk for _extent, chunk in stored]

    def read_chunks(
        self,
        extent: StripedExtent,
        placed_list: list[StoredChunk],
        consume: bool = True,
    ) -> typing.Generator:
        """Read a specific set of stored chunks as one burst.

        The chunks are consumed only after the read succeeds, so a failed
        read leaves every one of them in place.  ``consume=False`` leaves
        them (and their space) in place regardless — the bucket-overflow
        path re-reads an S bucket once per R piece.
        """
        per_disk: dict[Disk, tuple[Region, float, int]] = {}
        for placed in placed_list:
            if placed not in extent.chunks:
                raise ValueError(f"chunk not stored in {extent.name!r}")
            for disk, blocks in placed.placement:
                _region, total, near = per_disk.get(disk, (extent.region, 0.0, -1))
                per_disk[disk] = (extent.region, total + blocks, near + 1)
                disk.read_blocks += blocks
        if per_disk:
            yield self._fan_out([(disk, *op) for disk, op in per_disk.items()], "disk-read")
        data = DataChunk.concat(placed_list)
        if consume:
            extent._bury(placed_list)
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
        batch = take_batch(extent.chunks, max_blocks)
        if not batch:
            return DataChunk.empty()
        return (yield from self.read_chunks(extent, batch))

    def read_all(self, extent: StripedExtent, consume: bool = False) -> typing.Generator:
        """Read the full extent in parallel across its disks."""
        per_disk: dict[Disk, float] = {}
        for chunk in extent.chunks:
            for disk, blocks in chunk.placement:
                per_disk[disk] = per_disk.get(disk, 0.0) + blocks
        for disk, blocks in per_disk.items():
            disk.read_blocks += blocks
        data = extent.peek_all()
        yield from self._parallel_io(extent, list(per_disk.items()))
        if consume:
            extent._clear()
        return data

    def read_next(self, extent: StripedExtent) -> typing.Generator:
        """Read and consume the extent's oldest chunk.

        No join calls it: it is kept only because the benchmark's call
        counters name it (ROADMAP item 8).
        """
        if not extent.chunks:
            raise ValueError(f"striped extent {extent.name!r} is empty")
        return (yield from self.read_chunks(extent, [next(iter(extent.chunks))]))

    def read_chunk(self, extent: StripedExtent, placed: StoredChunk) -> typing.Generator:
        """Read and consume one specific stored chunk.

        No join calls it: it is kept only because the benchmark's call
        counters name it (ROADMAP item 8).
        """
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
