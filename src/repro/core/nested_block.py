"""Nested Block Join methods for tertiary storage (Sections 5.1.1, 5.1.3).

All three variants copy R from tape to disk in Step I, then iterate over S
in memory-sized chunks, scanning the disk-resident R once per chunk.
The join groups R's keys once, from the pieces of its first scan, and
probes each S chunk against that build once
(:func:`~repro.core.base.scan_disk_and_join`):

* :class:`DiskTapeNestedBlock` (DT-NB) — strictly sequential.
* :class:`ConcurrentNestedBlockMemory` (CDT-NB/MB) — two half-size memory
  buffers; one overlapped tape scan fetches the next S chunk while the
  previous one is joined with R.
* :class:`ConcurrentNestedBlockDisk` (CDT-NB/DB) — a full-size chunk held
  in memory, refilled through an interleaved double-buffered disk region,
  trading disk space and disk traffic for larger chunks.

Memory split follows Section 6: 10 % of M buffers the R scan, 90 % buffers
S.  The small tape→disk speed-matching buffer of CDT-NB/DB is "very small
compared to M and its effect is ignored in the analysis" (Section 6); we
likewise keep it outside the M ledger.
"""

from __future__ import annotations

import functools
import typing

import numpy as np

from repro.buffering.interleaved import InterleavedDiskBuffer
from repro.core.base import (
    RBucket,
    TertiaryJoinMethod,
    align_blocks_to_tuples,
    scan_disk_and_join,
    scan_tape,
)
from repro.core.environment import JoinEnvironment
from repro.core.requirements import NB_R_SCAN_FRACTION, ResourceRequirements
from repro.core.spec import JoinSpec, scan_bounds
from repro.costmodel.parameters import SystemParameters


class _NestedBlockBase(TertiaryJoinMethod):
    """Shared Step I (copy R to disk) and memory layout."""

    family = "nested-block"

    def _r_scan_blocks(self, spec: JoinSpec | SystemParameters) -> float:
        return NB_R_SCAN_FRACTION * spec.memory_blocks

    def _s_buffer_blocks(self, spec: JoinSpec | SystemParameters) -> float:
        """Total memory available for buffering S (M minus the R window)."""
        return spec.memory_blocks - self._r_scan_blocks(spec)

    def _copy_r_to_disk(self, env: JoinEnvironment, overlap: bool) -> typing.Generator:
        """Step I: copy relation R from tape to a disk extent."""
        spec = env.spec
        r_disk = env.array.allocate("R_copy")
        staging = self._s_buffer_blocks(spec)
        chunk = staging / 2 if overlap else staging

        def store(data):
            yield from env.array.write(r_disk, data)

        with env.memory.hold(staging, "step I staging"):
            yield from scan_tape(
                env, env.drive_r, env.file_r,
                scan_bounds(0.0, spec.size_r_blocks, chunk), store, overlap,
            )
        env.count_r_scan()
        env.mark_step1_done()
        return r_disk

    def _join_window(self, env: JoinEnvironment, r_disk) -> typing.Callable:
        """Step II's join of one S window's keys: one scan of the R copy
        past it, against the build side the first scan groups."""
        r_side = RBucket(functools.partial(env.array.read_range, r_disk), r_disk.n_blocks)
        r_window = self._r_scan_blocks(env.spec)

        def join(s_keys):
            yield from scan_disk_and_join(env, r_side, r_window, s_keys)
            env.count_iteration()

        return join

    def _join_piece(self, env: JoinEnvironment, r_disk) -> typing.Callable:
        """Step II's consumer of one S piece read from tape."""
        join = self._join_window(env, r_disk)
        return lambda data: join(data.keys)


class DiskTapeNestedBlock(_NestedBlockBase):
    """DT-NB: sequential Disk–Tape Nested Block Join (Section 5.1.1)."""

    symbol = "DT-NB"
    name = "Disk-Tape Nested Block Join"
    table2 = ("|Si|", "|R|", "0", "0")
    concurrent = False

    def _chunk_blocks(self, spec: JoinSpec | SystemParameters) -> float:
        return self._s_buffer_blocks(spec)

    def requirements(self, p: SystemParameters) -> ResourceRequirements:
        """Table 2 row: M = |S_i| (any memory works), D = |R|."""
        return ResourceRequirements(
            memory_blocks=1.0,
            disk_blocks=p.size_r_blocks,
            tape_scratch_r_blocks=0.0,
            tape_scratch_s_blocks=0.0,
        )

    def _execute(self, env: JoinEnvironment) -> typing.Generator:
        spec = env.spec
        r_disk = yield from self._copy_r_to_disk(env, overlap=False)
        with env.memory.hold(spec.memory_blocks, "S chunk + R window"):
            yield from scan_tape(
                env, env.drive_s, env.file_s,
                scan_bounds(0.0, spec.size_s_blocks, self._chunk_blocks(spec)),
                self._join_piece(env, r_disk), overlap=False,
            )
        env.array.free(r_disk)


class ConcurrentNestedBlockMemory(_NestedBlockBase):
    """CDT-NB/MB: memory double-buffering (Section 5.1.3).

    Memory is split into one R window and two S buffers; an overlapped
    :func:`~repro.core.base.scan_tape` reads the next S chunk from tape
    into one buffer while the other is joined against R.  Interleaved
    buffering cannot apply here because each chunk is needed in memory
    for the whole iteration, hence the halved chunk size — and twice the
    iterations of DT-NB.
    """

    symbol = "CDT-NB/MB"
    name = "Concurrent Disk-Tape Nested Block Join with Memory Buffering"
    table2 = ("2|Si|", "|R|", "0", "0")
    concurrent = True

    def _chunk_blocks(self, spec: JoinSpec | SystemParameters) -> float:
        return self._s_buffer_blocks(spec) / 2

    def requirements(self, p: SystemParameters) -> ResourceRequirements:
        """Table 2 row: M = 2|S_i| (two buffers), D = |R|."""
        return ResourceRequirements(
            memory_blocks=2.0,
            disk_blocks=p.size_r_blocks,
            tape_scratch_r_blocks=0.0,
            tape_scratch_s_blocks=0.0,
        )

    def _execute(self, env: JoinEnvironment) -> typing.Generator:
        spec = env.spec
        r_disk = yield from self._copy_r_to_disk(env, overlap=True)
        chunk = self._chunk_blocks(spec)
        r_window = self._r_scan_blocks(spec)
        # Table 2's 2|S_i| plus the R window, held for all of Step II; the
        # order of the holds fixes the float sum reported as peak memory.
        with (
            env.memory.hold(chunk, "S buffer"),
            env.memory.hold(r_window, "R window"),
            env.memory.hold(chunk, "S buffer"),
        ):
            yield from scan_tape(
                env, env.drive_s, env.file_s,
                scan_bounds(0.0, spec.size_s_blocks, chunk),
                self._join_piece(env, r_disk), overlap=True,
            )
        env.array.free(r_disk)


class ConcurrentNestedBlockDisk(_NestedBlockBase):
    """CDT-NB/DB: interleaved disk double-buffering (Section 5.1.3).

    S chunks are staged from tape into an interleaved double-buffered disk
    region of |S_i| blocks while the previous chunk — read from that
    region into memory — is joined with R.  The chunk is twice CDT-NB/MB's
    for the same M, at the price of |S_i| extra disk space and of routing
    all of S through the disks.
    """

    symbol = "CDT-NB/DB"
    name = "Concurrent Disk-Tape Nested Block Join with Disk Buffering"
    table2 = ("|Si|", "|R| + |Si|", "0", "0")
    concurrent = True
    stages_s_on_disk = True

    #: Speed-matching buffer (blocks) between tape and the disk region;
    #: outside the M ledger, as in the paper's analysis.
    SPEED_MATCH_BLOCKS = 4.0

    def _chunk_blocks(self, spec: JoinSpec | SystemParameters) -> float:
        return self._s_buffer_blocks(spec)

    def requirements(self, p: SystemParameters) -> ResourceRequirements:
        """Table 2 row: M = |S_i|, D = |R| + |S_i| (the disk buffer)."""
        return ResourceRequirements(
            memory_blocks=1.0,
            disk_blocks=p.size_r_blocks + self._chunk_blocks(p),
            tape_scratch_r_blocks=0.0,
            tape_scratch_s_blocks=0.0,
        )

    def _execute(self, env: JoinEnvironment) -> typing.Generator:
        spec = env.spec
        r_disk = yield from self._copy_r_to_disk(env, overlap=True)
        chunk = align_blocks_to_tuples(
            self._chunk_blocks(spec), spec.relation_s.tuples_per_block
        )
        r_window = self._r_scan_blocks(spec)
        sim = env.sim
        slack = 2.0 / spec.relation_s.tuples_per_block
        sbuf = InterleavedDiskBuffer(
            sim, env.array, "s_buffer", chunk + slack + 1e-6, env.observer
        )
        s_pieces = scan_bounds(0.0, spec.size_s_blocks, chunk)
        stage = min(self.SPEED_MATCH_BLOCKS, chunk)

        def writer():
            for iteration, (offset, target) in enumerate(s_pieces):
                yield from scan_tape(
                    env, env.drive_s, env.file_s, scan_bounds(offset, target, stage),
                    functools.partial(sbuf.put, iteration, "s"), overlap=False,
                )
                sbuf.end_iteration(iteration)

        join = self._join_window(env, r_disk)

        def joiner():
            with env.memory.hold(r_window, "R window"):
                for iteration in range(len(s_pieces)):
                    yield sbuf.wait_iteration(iteration)
                    pieces = []
                    taken = 0.0
                    while True:
                        data = yield from sbuf.pop_coalesced(iteration, "s", 0.0)
                        if data is None:
                            break
                        pieces.append(data)
                        taken += data.n_blocks
                    env.memory.take(taken, "S chunk")
                    keys = (
                        pieces[0].keys
                        if len(pieces) == 1
                        else np.concatenate([p.keys for p in pieces])
                    )
                    yield from join(keys)
                    env.memory.give(taken)
                    sbuf.finish_iteration(iteration)

        yield sim.all_of(
            [sim.process(writer(), name="fill"), sim.process(joiner(), name="join")]
        )
        sbuf.close()
        env.array.free(r_disk)
