"""Interleaved double-buffered disk space (Section 4).

One physical disk region of ``capacity_blocks`` is shared by two logical
buffers, identified by iteration number: while the join consumes iteration
*i*'s chunks (releasing their space as each is read), the hash/prefetch
process fills iteration *i+1* into the space just released.  The number of
iterations is unchanged relative to a single buffer, and occupancy stays
near 100 % — the property Figure 4 demonstrates.

Chunks are tagged (e.g. with a hash bucket id) so the consumer can fetch
exactly the chunks of one bucket, in any order, without draining the FIFO.
Each tag's pending list holds the disk array's stored-chunk handles
(:class:`~repro.storage.disk_array.StoredChunk`) in write order; a read
that fails puts its handles back at the front, so no chunk is lost.
"""

from __future__ import annotations

import itertools
import typing

import numpy as np

from repro.obs.recorder import JoinObserver
from repro.simulator.engine import Simulator
from repro.simulator.events import Event
from repro.simulator.resources import Container
from repro.storage.block import DataChunk
from repro.storage.disk_array import DiskArray, StoredChunk, StripedExtent, take_batch


class InterleavedDiskBuffer:
    """A shared physical disk buffer holding two logical iteration buffers."""

    def __init__(
        self,
        sim: Simulator,
        array: DiskArray,
        name: str,
        capacity_blocks: float,
        observer: JoinObserver | None = None,
    ):
        if capacity_blocks <= 0:
            raise ValueError(f"capacity must be positive, got {capacity_blocks}")
        self.sim = sim
        self.array = array
        self.name = name
        self.capacity_blocks = float(capacity_blocks)
        self.extent: StripedExtent = array.allocate(name)
        self._free = Container(sim, capacity=capacity_blocks, init=capacity_blocks)
        self._pending: dict[int, dict[object, list[StoredChunk]]] = {}
        self._done: dict[int, Event] = {}
        self._occupancy: dict[int, float] = {}
        self.observer = observer
        self._record()  # initial empty-buffer sample anchors the series

    # -- occupancy ledger -------------------------------------------------------

    @property
    def level_blocks(self) -> float:
        """Blocks currently held across both logical buffers."""
        return self.capacity_blocks - self._free.level

    def _record(self) -> None:
        if self.observer is None:
            return
        now = self.sim.now
        even = sum(v for it, v in self._occupancy.items() if it % 2 == 0)
        odd = sum(v for it, v in self._occupancy.items() if it % 2 == 1)
        self.observer.timeseries(f"{self.name}.even").record(now, even)
        self.observer.timeseries(f"{self.name}.odd").record(now, odd)
        self.observer.timeseries(f"{self.name}.total").record(now, even + odd)

    # -- producer side ------------------------------------------------------------

    def put(self, iteration: int, tag: object, chunk: DataChunk) -> typing.Generator:
        """Write ``chunk`` for ``iteration`` under ``tag``, waiting for space."""
        if chunk.n_blocks > self.capacity_blocks + 1e-9:
            raise ValueError(
                f"chunk of {chunk.n_blocks:.2f} blocks exceeds buffer "
                f"capacity {self.capacity_blocks:.2f} ({self.name})"
            )
        yield self._free.get(chunk.n_blocks)
        stored = yield from self.array.write(self.extent, chunk)
        self._pending.setdefault(iteration, {}).setdefault(tag, []).append(stored)
        self._occupancy[iteration] = self._occupancy.get(iteration, 0.0) + chunk.n_blocks
        self._record()

    def put_many(
        self, iteration: int, writes: list[tuple[object, np.ndarray, float]]
    ) -> typing.Generator:
        """Write a burst of ``(tag, keys, n_blocks)`` for ``iteration`` in
        one operation.

        Space for the whole burst is claimed first (backpressure), then the
        chunks are written as a single disk burst — the flush pattern of a
        hash process emptying its per-bucket staging buffers.
        """
        total = sum(n_blocks for _tag, _keys, n_blocks in writes)
        if total > self.capacity_blocks + 1e-9:
            raise ValueError(
                f"burst of {total:.2f} blocks exceeds buffer capacity "
                f"{self.capacity_blocks:.2f} ({self.name})"
            )
        if total <= 0:
            return
        yield self._free.get(total)
        stored = yield from self.array.write_burst(
            [(self.extent, keys, n_blocks) for _tag, keys, n_blocks in writes]
        )
        pending = self._pending.setdefault(iteration, {})
        for (tag, _keys, _n_blocks), chunk in zip(writes, stored):
            pending.setdefault(tag, []).append(chunk)
        self._occupancy[iteration] = self._occupancy.get(iteration, 0.0) + total
        self._record()

    def end_iteration(self, iteration: int) -> None:
        """Mark ``iteration``'s logical buffer as completely written."""
        event = self._done_event(iteration)
        if not event.triggered:
            event.succeed()

    # -- consumer side --------------------------------------------------------------

    def _done_event(self, iteration: int) -> Event:
        if iteration not in self._done:
            self._done[iteration] = Event(self.sim)
        return self._done[iteration]

    def wait_iteration(self, iteration: int) -> Event:
        """Event triggering once ``iteration`` is fully written."""
        return self._done_event(iteration)

    def has_pending(self, iteration: int, tag: object) -> bool:
        """True while ``tag`` still has unread chunks in ``iteration``."""
        return bool(self._pending.get(iteration, {}).get(tag))

    def peek_coalesced(
        self, iteration: int, tag: object, start_chunk: int, max_blocks: float
    ) -> typing.Generator:
        """Read up to ``max_blocks`` of ``tag`` starting at ``start_chunk``
        *without releasing anything*.

        Returns ``(data, next_chunk)``; ``data`` is None past the end.
        The bucket-overflow path scans the same S bucket repeatedly, once
        per memory-sized piece of an oversized R bucket, then frees it in
        one step with :meth:`discard`.
        """
        group = self._pending.get(iteration, {}).get(tag, [])
        batch = take_batch(itertools.islice(group, start_chunk, None), max_blocks)
        if not batch:
            return None, start_chunk
        data = yield from self.array.read_chunks(self.extent, batch, consume=False)
        return data, start_chunk + len(batch)

    def discard(self, iteration: int, tag: object) -> None:
        """Release every chunk of ``tag`` without further disk reads."""
        group = self._pending.get(iteration, {}).pop(tag, None)
        if group is None:
            raise KeyError(f"no chunks tagged {tag!r} in iteration {iteration}")
        total = 0.0
        for chunk in group:
            total += chunk.n_blocks
        self.extent._bury(group)
        self._occupancy[iteration] -= total
        self._free.put(total)
        self._record()

    def pop_coalesced(
        self, iteration: int, tag: object, max_blocks: float
    ) -> typing.Generator:
        """Read and release up to ``max_blocks`` of ``tag`` as one burst.

        Returns ``None`` once the tag is exhausted.  This is the streaming
        probe path: the consumer bounds its memory by ``max_blocks`` while
        the scattered flush fragments of one bucket are fetched together.
        A batch holds at least one chunk, so ``max_blocks=0`` pops one.
        """
        group = self._pending.get(iteration, {}).get(tag)
        if not group:
            self._pending.get(iteration, {}).pop(tag, None)
            return None
        batch = take_batch(group, max_blocks)
        del group[: len(batch)]
        if not group:
            self._pending.get(iteration, {}).pop(tag, None)
        try:
            data = yield from self.array.read_chunks(self.extent, batch)
        except BaseException:
            # Restore the whole popped batch, in order, ahead of anything
            # still pending — no chunk is lost to an injected fault.
            restored = self._pending.setdefault(iteration, {}).setdefault(tag, [])
            restored[0:0] = batch
            raise
        self._occupancy[iteration] -= data.n_blocks
        yield self._free.put(data.n_blocks)
        self._record()
        return data

    def finish_iteration(self, iteration: int) -> None:
        """Drop bookkeeping for a fully consumed iteration."""
        leftover = self._pending.pop(iteration, {})
        if leftover:
            raise RuntimeError(
                f"iteration {iteration} finished with unconsumed tags: "
                f"{sorted(map(repr, leftover))}"
            )
        residual = self._occupancy.pop(iteration, 0.0)
        if residual > 1e-6:
            raise RuntimeError(
                f"iteration {iteration} finished holding {residual:.3f} blocks"
            )
        self._done.pop(iteration, None)

    def close(self) -> None:
        """Release the underlying disk extent (buffer must be empty)."""
        if self.level_blocks > 1e-6:
            raise RuntimeError(
                f"closing {self.name} with {self.level_blocks:.3f} blocks buffered"
            )
        self.array.free(self.extent)
