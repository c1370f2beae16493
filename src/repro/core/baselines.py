"""Baseline strategies the paper argues against.

Two comparison points frame the paper's contribution:

* :class:`StagedDiskJoin` ("STAGE-GH") — the introduction's strawman:
  "use operating system facilities to copy all tertiary-resident data to
  secondary storage, and then optimize and process the query as if the
  data had been in secondary storage all along."  It stages *both*
  relations to disk, then runs a disk-resident Grace Hash Join.  It
  "fails completely if not enough secondary storage space exists to stage
  the entire dataset" — its disk requirement dwarfs every method in
  Table 2 — and even when it fits it wastes the chance to overlap tape
  and disk I/O.
* :class:`NaiveTapeNestedLoop` ("NAIVE-NL") — joining is "one of the most
  costly [operations] if done naively": hold an M-sized chunk of R in
  memory and rescan the whole of S from tape for every chunk, using no
  disk at all.  Response grows with ⌈|R|/M⌉ full S scans.

Both run on the same simulated hierarchy and verify against the same
reference join, so the benchmark harness can put the paper's methods and
their strawmen on one chart.
"""

from __future__ import annotations

import typing

from repro.core.base import (
    BucketStager,
    DiskBucket,
    GraceHashLayout,
    RBucket,
    TertiaryJoinMethod,
    align_blocks_to_tuples,
    extent_reader,
    join_bucket,
    scan_tape,
    write_buckets,
)
from repro.core.environment import JoinEnvironment
from repro.core.requirements import NB_R_SCAN_FRACTION, ResourceRequirements
from repro.core.spec import scan_bounds
from repro.costmodel.parameters import SystemParameters
from repro.storage.block import tuple_range


class StagedDiskJoin(TertiaryJoinMethod):
    """STAGE-GH: stage both tapes to disk, then join on disk.

    Step I copies R and S from their tapes to disk (the two drives copy
    in parallel — a generous reading of the OS-staging strawman).  Step II
    is a conventional disk-resident Grace Hash Join: partition both
    staged copies into buckets, then join bucket by bucket through the
    shared bucket join (oversized buckets spill like the paper's methods).

    Disk requirement: the staged copies (|R| + |S|) plus the bucket
    partitions being written while the copies are read, peaking near
    2(|R| + |S|) — compare Table 2's |R| + |S_i| for CDT-GH.
    """

    symbol = "STAGE-GH"
    name = "Staged Disk Join (OS staging baseline)"
    concurrent = False

    def requirements(self, p: SystemParameters) -> ResourceRequirements:
        """Needs sqrt(|R|) memory and ~2(|R| + |S|) blocks of disk."""
        import math

        staged = p.size_r_blocks + p.size_s_blocks
        return ResourceRequirements(
            memory_blocks=math.sqrt(p.size_r_blocks),
            disk_blocks=2 * staged,
            tape_scratch_r_blocks=0.0,
            tape_scratch_s_blocks=0.0,
        )

    def _execute(self, env: JoinEnvironment) -> typing.Generator:
        spec = env.spec
        layout = GraceHashLayout(spec)
        sim = env.sim
        staging = layout.read_staging_blocks

        # Step I: stage both relations, each drive feeding the disks.
        r_copy = env.array.allocate("R_staged")
        s_copy = env.array.allocate("S_staged")

        def stage(drive, file, extent, n_blocks):
            def store(data):
                yield from env.array.write(extent, data)

            with env.memory.hold(staging / 2, f"staging {extent.name}"):
                yield from scan_tape(
                    env, drive, file, scan_bounds(0.0, n_blocks, staging / 4),
                    store, True,
                )

        yield sim.all_of(
            [
                sim.process(stage(env.drive_r, env.file_r, r_copy, spec.size_r_blocks)),
                sim.process(stage(env.drive_s, env.file_s, s_copy, spec.size_s_blocks)),
            ]
        )
        env.count_r_scan()
        env.mark_step1_done()

        # Step II: disk-resident Grace Hash Join over the staged copies.
        r_buckets = [env.array.allocate(f"R.b{b}") for b in range(layout.n_buckets)]
        s_buckets = [env.array.allocate(f"S.b{b}") for b in range(layout.n_buckets)]

        def partition(extent, relation, buckets):
            # The staged copy holds the relation in order, so each read's
            # tuple range names its tuples in the join's bucket index.
            reads = scan_bounds(0.0, extent.n_blocks, max(layout.read_staging_blocks, 1.0))
            stager = BucketStager(
                layout, env.bucket_index(relation, layout.n_buckets),
                relation.tuples_per_block, write_buckets(env, buckets),
                [tuple_range(extent.chunks, offset, step) for offset, step in reads],
            )
            for offset, step in reads:
                yield from env.array.read_range(extent, offset, step)
                yield from stager.add_read()
            yield from stager.drain()

        with env.memory.hold(
            layout.read_staging_blocks + layout.write_staging_blocks, "partitioning"
        ):
            yield from partition(r_copy, spec.relation_r, r_buckets)
            env.array.free(r_copy)
            env.count_r_scan()
            yield from partition(s_copy, spec.relation_s, s_buckets)
            env.array.free(s_copy)

            for r_extent, s_extent in zip(r_buckets, s_buckets):
                if s_extent.n_blocks <= 0 or r_extent.n_blocks <= 0:
                    continue
                r_bucket = RBucket(
                    extent_reader(env.array, r_extent, consume=True), r_extent.n_blocks
                )
                yield from join_bucket(
                    env, layout, r_bucket, DiskBucket(env.array, s_extent)
                )
            env.count_r_scan()
            env.count_iteration()
        for extent in r_buckets + s_buckets:
            env.array.free(extent)


class NaiveTapeNestedLoop(TertiaryJoinMethod):
    """NAIVE-NL: memory-sized R chunks, a full S tape scan per chunk.

    No disk is used at all; S is re-read from tape ⌈|R|/(0.9M)⌉ times.
    This is the "done naively" cost the literature on join optimization
    starts from, transplanted to tape.
    """

    symbol = "NAIVE-NL"
    name = "Naive Tape Nested Loop Join"
    concurrent = False

    def requirements(self, p: SystemParameters) -> ResourceRequirements:
        """Any memory, no disk, no scratch."""
        return ResourceRequirements(
            memory_blocks=1.0,
            disk_blocks=0.0,
            tape_scratch_r_blocks=0.0,
            tape_scratch_s_blocks=0.0,
        )

    def _execute(self, env: JoinEnvironment) -> typing.Generator:
        spec = env.spec
        chunk = align_blocks_to_tuples(
            (1.0 - NB_R_SCAN_FRACTION) * spec.memory_blocks,
            spec.relation_r.tuples_per_block,
        )
        probe = NB_R_SCAN_FRACTION * spec.memory_blocks
        env.mark_step1_done()  # there is no setup phase
        for offset, step in scan_bounds(0.0, spec.size_r_blocks, chunk):
            with env.memory.hold(step, "R chunk"):
                r_data = yield from env.drive_r.read_range(env.file_r, offset, step)

                def probe_s(data, held=env.build(r_data.keys)):
                    env.probe(held, data.keys)
                    return
                    yield  # pragma: no cover - generator shape

                with env.memory.hold(probe, "S window"):
                    yield from scan_tape(
                        env, env.drive_s, env.file_s,
                        scan_bounds(0.0, spec.size_s_blocks, max(probe, 1.0)),
                        probe_s, overlap=False,
                    )
            env.count_iteration()
        env.count_r_scan()


#: The baselines, for benchmark harnesses (not part of Table 2).
BASELINES: tuple[TertiaryJoinMethod, ...] = (StagedDiskJoin(), NaiveTapeNestedLoop())
