"""Tape–Tape Grace Hash Join methods (Section 5.2).

These methods do not require the smaller relation to fit on disk.  Step I
creates a *hashed copy of R on tape*, using the disk only as an assembly
area: R is scanned repeatedly, each scan completing the fraction of
buckets that fits on disk, and finished buckets are appended to tape
contiguously.

* :class:`ConcurrentTapeTapeGraceHash` (CTT-GH) — hashes R onto the R
  tape, then runs Step II like CDT-GH with the R buckets streamed from
  tape; the whole disk budget ``D`` double-buffers S.  The paper's sole
  candidate for very large joins (Experiment 1 / Table 3).
* :class:`TapeTapeGraceHash` (TT-GH) — hashes R onto the *S* tape and S
  onto the *R* tape (eliminating seeks between source and destination),
  then joins bucket by bucket, alternating drives.  Huge setup cost, but
  disk space demand is "any".
"""

from __future__ import annotations

import functools
import math
import typing

import numpy as np

from repro.core.base import (
    GraceHashLayout,
    RBucket,
    TertiaryJoinMethod,
    align_blocks_to_tuples,
    concurrent_step2,
    hash_tape_range,
    join_bucket,
    probe_resident,
    tape_scan_plan,
    write_buckets,
)
from repro.core.environment import JoinEnvironment
from repro.core.requirements import ResourceRequirements
from repro.core.spec import JoinSpec
from repro.costmodel.parameters import SystemParameters
from repro.faults.checkpoint import run_unit
from repro.relational.hashing import BucketIndex
from repro.relational.relation import Relation
from repro.storage.tape import TapeDrive, TapeFile

#: Fraction of D one assembly group may occupy; the margin keeps the
#: (exactly precomputed) group totals clear of the capacity check.
_GROUP_CAPACITY_FRACTION = 0.95

#: Assembly occupancy that triggers a mid-scan dump to tape (only reachable
#: by single buckets larger than the whole assembly area).
_DUMP_THRESHOLD_FRACTION = 0.97


def read_files_range(
    drive: TapeDrive, files: list[TapeFile], offset_blocks: float, n_blocks: float
) -> typing.Generator:
    """Read a logical block range spanning a bucket's tape fragments."""
    from repro.storage.block import DataChunk

    pieces = []
    base = 0.0
    end = offset_blocks + n_blocks
    for tape_file in files:
        lo = max(offset_blocks, base)
        hi = min(end, base + tape_file.n_blocks)
        if hi > lo:
            data = yield from drive.read_range(tape_file, lo - base, hi - lo)
            pieces.append(data)
        base += tape_file.n_blocks
        if base >= end:
            break
    return DataChunk.concat(pieces)


def tape_r_bucket(drive: TapeDrive, files: list[TapeFile]) -> RBucket:
    """An R bucket read from its hashed tape fragments on ``drive``."""
    return RBucket(
        functools.partial(read_files_range, drive, files), sum(f.n_blocks for f in files)
    )


class TapeBucket:
    """An S bucket in tape fragments (TT-GH), read but never consumed.

    A cursor is ``(fragment index, offset in it)``; no read crosses a
    fragment boundary.  :meth:`pop` advances the bucket's own cursor.
    """

    def __init__(self, drive: TapeDrive, files: list[TapeFile]):
        self.drive = drive
        self.files = files
        self._cursor: tuple[int, float] | None = None

    def pop(self, max_blocks: float) -> typing.Generator:
        """Read the next piece at the bucket's own cursor; None at the end."""
        data, self._cursor = yield from self.peek(self._cursor, max_blocks)
        return data

    def peek(self, cursor: tuple | None, max_blocks: float) -> typing.Generator:
        """Read up to ``max_blocks`` at ``cursor`` (None: the start);
        returns ``(data or None, next cursor)``."""
        index, offset = cursor or (0, 0.0)
        while index < len(self.files):
            tape_file = self.files[index]
            if offset < tape_file.n_blocks - 1e-9:
                step = min(max_blocks, tape_file.n_blocks - offset)
                data = yield from self.drive.read_range(tape_file, offset, step)
                return data, (index, offset + step)
            index, offset = index + 1, 0.0
        return None, (index, offset)

    def discard(self) -> None:
        """Tape fragments stay where they are."""


def bucket_sizes_blocks(index: BucketIndex, tuples_per_block: int) -> np.ndarray:
    """Exact size of each hash bucket of an indexed relation, in blocks."""
    return index.counts() / tuples_per_block


def pack_bucket_groups(sizes: np.ndarray, capacity_blocks: float) -> list[list[int]]:
    """Group consecutive buckets so each group's total fits the assembly area.

    Buckets stay in id order so the bucket files land contiguously on tape
    and Step II can stream them sequentially.  A single bucket larger than
    the capacity gets its own group and is dumped to tape in mid-scan
    pieces.
    """
    groups: list[list[int]] = []
    current: list[int] = []
    total = 0.0
    for bucket, size in enumerate(sizes):
        if current and total + size > capacity_blocks:
            groups.append(current)
            current, total = [], 0.0
        current.append(bucket)
        total += size
    if current:
        groups.append(current)
    return groups


class _TapeTapeBase(TertiaryJoinMethod):
    """Shared hash-to-tape machinery for both tape–tape methods."""

    tape_step2 = True

    def _hash_to_tape(
        self,
        env: JoinEnvironment,
        layout: GraceHashLayout,
        relation: Relation,
        source_file: TapeFile,
        read_drive: TapeDrive,
        write_drive: TapeDrive,
        prefix: str,
        overlap: bool,
        count_r_scans: bool,
    ) -> typing.Generator:
        """Hash ``relation`` from its tape to bucket files on another tape.

        Returns ``{bucket: [TapeFile, ...]}`` — usually one file per
        bucket; oversized buckets leave multiple fragments.
        """
        spec = env.spec
        tpb = relation.tuples_per_block
        n_buckets = layout.n_buckets
        sizes = bucket_sizes_blocks(env.bucket_index(relation, n_buckets), tpb)
        # A flush burst must always fit beside the assembled buckets, so
        # the staging pool is capped by the disk budget and dumps trigger
        # with one burst of headroom left (a burst may overshoot the pool
        # by up to one scan chunk).
        staging_pool = min(layout.write_staging_blocks, spec.disk_blocks / 4)
        burst_max = staging_pool + layout.scan_chunk_blocks + 2.0 / tpb
        dump_at = min(
            _DUMP_THRESHOLD_FRACTION * spec.disk_blocks,
            spec.disk_blocks - burst_max,
        )
        capacity = min(_GROUP_CAPACITY_FRACTION * spec.disk_blocks, dump_at)
        groups = pack_bucket_groups(sizes, capacity)
        files: dict[int, list[TapeFile]] = {b: [] for b in range(n_buckets)}
        fragment = [0]
        dest_volume = write_drive.volume
        # Every group scan reads the whole relation.  On drives with READ
        # REVERSE, alternate scan direction so the next scan starts where
        # the previous one ended — no rewinds or repositioning between
        # scans (footnote 2 of the paper).
        reads, tuples = tape_scan_plan(
            source_file, 0.0, relation.n_blocks, layout.scan_chunk_blocks
        )
        plans = [(reads, tuples)]
        if read_drive.params.supports_read_reverse:
            plans.append((reads[::-1], tuples[::-1]))

        for scan_index, group in enumerate(groups):
            plan = plans[scan_index % len(plans)]
            assemblies = {b: env.array.allocate(f"{prefix}.asm{b}") for b in group}

            def dump():
                for bucket in group:
                    extent = assemblies[bucket]
                    if extent.n_blocks <= 1e-9:
                        continue
                    fragment[0] += 1
                    tape_file = dest_volume.create_file(
                        f"{prefix}.b{bucket}.f{fragment[0]}"
                    )
                    files[bucket].append(tape_file)
                    while extent.n_blocks > 1e-9:
                        data = yield from env.array.read_coalesced(
                            extent, layout.bucket_memory_blocks
                        )
                        env.memory.take(data.n_blocks, "bucket dump")
                        yield from write_drive.append(tape_file, data)
                        env.memory.give(data.n_blocks)

            def flush(pairs):
                yield from write_buckets(env, assemblies)(pairs)
                if sum(assemblies[b].n_blocks for b in group) >= dump_at:
                    yield from dump()

            with env.memory.hold(
                layout.read_staging_blocks + layout.write_staging_blocks,
                "hash-to-tape staging",
            ):
                yield from hash_tape_range(
                    env, layout, read_drive, source_file, plan, relation, flush,
                    overlap=overlap, buckets=group, threshold_blocks=staging_pool,
                )
                yield from dump()
            if count_r_scans:
                env.count_r_scan()
            for extent in assemblies.values():
                env.array.free(extent)
        return files


class ConcurrentTapeTapeGraceHash(_TapeTapeBase):
    """CTT-GH: Concurrent Tape–Tape Grace Hash Join (Section 5.2.1)."""

    symbol = "CTT-GH"
    name = "Concurrent Tape-Tape Grace Hash Join"
    table2 = ("sqrt(|R|)", "|Si|", "|R|", "0")
    concurrent = True
    stages_s_on_disk = True

    def requirements(self, p: SystemParameters) -> ResourceRequirements:
        """Table 2 row: M = sqrt(|R|), D = |S_i|, T_R = |R|.

        Table 2 lists D = |S_i| (whatever is granted buffers S); the
        assembly area must additionally absorb one staging flush, hence
        the small memory-proportional floor.
        """
        return ResourceRequirements(
            memory_blocks=math.sqrt(p.size_r_blocks),
            disk_blocks=0.35 * p.memory_blocks + 1.0,
            tape_scratch_r_blocks=p.size_r_blocks,
            tape_scratch_s_blocks=0.0,
        )

    def _chunk_blocks(self, spec: JoinSpec | SystemParameters) -> float:
        """|S_i| = D: the whole disk budget double-buffers S."""
        return spec.disk_blocks

    def _execute(self, env: JoinEnvironment) -> typing.Generator:
        spec = env.spec
        layout = GraceHashLayout(spec)
        # Step I: hashed copy of R appended to the R tape itself.
        r_files = yield from self._hash_to_tape(
            env, layout, spec.relation_r, env.file_r, env.drive_r, env.drive_r,
            "R", overlap=True, count_r_scans=True,
        )
        env.mark_step1_done()

        # Step II: like CDT-GH, with R buckets streamed from tape and the
        # entire disk budget double-buffering S.
        d = align_blocks_to_tuples(
            self._chunk_blocks(spec), spec.relation_s.tuples_per_block
        )
        r_sides = [tape_r_bucket(env.drive_r, r_files[b]) for b in range(layout.n_buckets)]
        yield from concurrent_step2(env, layout, d, r_sides)


class TapeTapeGraceHash(_TapeTapeBase):
    """TT-GH: sequential Tape–Tape Grace Hash Join (Section 5.2.2)."""

    symbol = "TT-GH"
    name = "Tape-Tape Grace Hash Join"
    table2 = ("sqrt(|R|)", "any", "|S|", "|R|")
    concurrent = False

    def requirements(self, p: SystemParameters) -> ResourceRequirements:
        """Table 2 row: M = sqrt(|R|), D = any, T_R = |S|, T_S = |R|.

        "Any" disk physically still means the assembly area must absorb
        one staging flush, hence the memory-proportional floor.
        """
        return ResourceRequirements(
            memory_blocks=math.sqrt(p.size_r_blocks),
            disk_blocks=0.35 * p.memory_blocks + 1.0,
            tape_scratch_r_blocks=p.size_s_blocks,
            tape_scratch_s_blocks=p.size_r_blocks,
        )

    def _execute(self, env: JoinEnvironment) -> typing.Generator:
        spec = env.spec
        layout = GraceHashLayout(spec)
        # Step I: R's buckets onto the S tape, S's buckets onto the R tape
        # ("the S tape is used as the target in order to eliminate tape
        # seeks between the source and destination locations").
        r_files = yield from self._hash_to_tape(
            env, layout, spec.relation_r, env.file_r, env.drive_r, env.drive_s,
            "R", overlap=True, count_r_scans=True,
        )
        s_files = yield from self._hash_to_tape(
            env, layout, spec.relation_s, env.file_s, env.drive_s, env.drive_r,
            "S", overlap=True, count_r_scans=False,
        )
        env.mark_step1_done()

        # Step II: bucket by bucket — R bucket (from the S tape) into
        # memory, matching S bucket (from the R tape) scanned past it.
        # The two drives pipeline: while bucket b's S files stream off the
        # R drive, bucket b+1's R files are prefetched from the S drive if
        # both buckets fit in M together.  An R bucket larger than M
        # (skewed keys) takes the shared spill path instead.
        buckets = [
            b for b in range(layout.n_buckets) if r_files[b] and s_files[b]
        ]
        r_sides = {b: tape_r_bucket(env.drive_s, r_files[b]) for b in buckets}
        budget = spec.memory_blocks + 1e-9
        prefetch_after = {
            b: c for b, c in zip(buckets, buckets[1:])
            if r_sides[b].n_blocks + r_sides[c].n_blocks <= budget
        }

        def fetch_r_bucket(bucket):
            pieces = []
            taken = 0.0
            try:
                for tape_file in r_files[bucket]:
                    data = yield from env.drive_s.read_file(tape_file)
                    env.memory.take(data.n_blocks, "R bucket")
                    taken += data.n_blocks
                    pieces.append(data.keys)
            except BaseException:
                env.memory.give(taken)
                raise
            return pieces, taken

        pending: dict[int, object] = {}

        def spawn(bucket):
            proc = env.sim.process(fetch_r_bucket(bucket), name="prefetch-R")
            if env.faults is not None:
                # If the bucket's unit restarts before awaiting this
                # prefetch, its failure must not crash the kernel;
                # awaiting still rethrows into the unit.
                proc.defused = True
            return proc

        def join_resident(bucket, s_bucket):
            r_pieces, taken = yield pending.pop(bucket, None) or spawn(bucket)
            following = prefetch_after.get(bucket)
            if following is not None and following not in pending:
                pending[following] = spawn(following)
            try:
                held = r_sides[bucket].build(env, r_pieces)
                yield from probe_resident(env, held, s_bucket, layout.probe_blocks)
            finally:
                env.memory.give(taken)

        if buckets and r_sides[buckets[0]].n_blocks <= budget:
            pending[buckets[0]] = spawn(buckets[0])
        for bucket in buckets:
            # The S bucket is read from tape without consuming it; its
            # cursor survives a unit restart, so a restarted unit does not
            # re-join pieces it already joined.
            s_bucket = TapeBucket(env.drive_r, s_files[bucket])
            if r_sides[bucket].n_blocks <= budget:
                unit = functools.partial(join_resident, bucket, s_bucket)
            else:
                unit = functools.partial(join_bucket, env, layout, r_sides[bucket], s_bucket)
            yield from run_unit(env, f"II.b{bucket}", unit)
            env.count_iteration()
        env.count_r_scan()
