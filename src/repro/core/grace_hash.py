"""Disk–Tape Grace Hash Join methods (Sections 5.1.2 and 5.1.4).

Both methods partition R from tape into B hash buckets on disk in Step I,
then consume S in ``d = D - |R|`` block pieces: each piece is hashed into S
buckets on disk and every R bucket is brought back to memory to be joined
with its S counterpart.

* :class:`DiskTapeGraceHash` (DT-GH) — strictly sequential phases.
* :class:`ConcurrentGraceHash` (CDT-GH) — the hash process stages
  iteration *i+1*'s S buckets into an interleaved double-buffered disk
  region while the join process drains iteration *i*, overlapping tape
  and disk I/O throughout Step II.
"""

from __future__ import annotations

import functools
import math
import typing

from repro.core.base import (
    DiskBucket,
    GraceHashLayout,
    RBucket,
    TertiaryJoinMethod,
    align_blocks_to_tuples,
    concurrent_step2,
    extent_reader,
    hash_tape_range,
    join_bucket,
    tape_scan_plan,
    write_buckets,
)
from repro.core.environment import JoinEnvironment
from repro.core.requirements import ResourceRequirements
from repro.core.spec import JoinSpec, scan_bounds
from repro.costmodel.parameters import SystemParameters
from repro.faults.checkpoint import run_unit


class _GraceHashBase(TertiaryJoinMethod):
    """Shared Step I (partition R onto disk) and Table 2 row."""

    table2 = ("sqrt(|R|)", "|R| + |Si|", "0", "0")
    family = "grace-hash"
    stages_s_on_disk = True
    cacheable_step1 = True

    def requirements(self, p: SystemParameters) -> ResourceRequirements:
        """Table 2 row: M = sqrt(|R|), D = |R| + |S_i|, with |S_i| >= 1."""
        return ResourceRequirements(
            memory_blocks=math.sqrt(p.size_r_blocks),
            disk_blocks=p.size_r_blocks + 1.0,
            tape_scratch_r_blocks=0.0,
            tape_scratch_s_blocks=0.0,
        )

    def _partition_r(
        self, env: JoinEnvironment, layout: GraceHashLayout, overlap: bool
    ) -> list:
        """Step I: read R from tape, hash into B bucket extents on disk.

        With a partition cache attached (``repro.hsm``), a resident
        partition set short-circuits the whole step — no tape read, no
        partition write, no R scan counted — and a miss offers the
        freshly written buckets to the cache on the way out.
        """
        cached = env.cached_r_partition(layout.n_buckets)
        if cached is not None:
            return cached
        spec = env.spec
        r_buckets = [env.array.allocate(f"R.b{b}") for b in range(layout.n_buckets)]
        with env.memory.hold(
            layout.read_staging_blocks + layout.write_staging_blocks, "step I staging"
        ):
            plan = tape_scan_plan(
                env.file_r, 0.0, spec.size_r_blocks, layout.scan_chunk_blocks
            )
            yield from hash_tape_range(
                env, layout, env.drive_r, env.file_r, plan, spec.relation_r,
                write_buckets(env, r_buckets), overlap=overlap,
            )
        env.count_r_scan()
        env.mark_step1_done()
        env.offer_r_partition(layout.n_buckets, r_buckets)
        return r_buckets

    def _chunk_blocks(self, spec: JoinSpec | SystemParameters) -> float:
        """|S_i| = d = D - |R|: the S piece consumed per iteration (the
        cost model's d too)."""
        return spec.disk_blocks - spec.size_r_blocks


class DiskTapeGraceHash(_GraceHashBase):
    """DT-GH: sequential Disk–Tape Grace Hash Join (Section 5.1.2)."""

    symbol = "DT-GH"
    name = "Disk-Tape Grace Hash Join"
    concurrent = False

    def _execute(self, env: JoinEnvironment) -> typing.Generator:
        spec = env.spec
        layout = GraceHashLayout(spec)
        r_buckets = yield from self._partition_r(env, layout, overlap=False)
        d = align_blocks_to_tuples(
            self._chunk_blocks(spec), spec.relation_s.tuples_per_block
        )
        s_buckets = [env.array.allocate(f"S.b{b}") for b in range(layout.n_buckets)]
        r_sides = [
            RBucket(extent_reader(env.array, extent), extent.n_blocks)
            for extent in r_buckets
        ]
        with env.memory.hold(
            layout.read_staging_blocks + layout.write_staging_blocks, "step II staging"
        ):
            for offset, target in scan_bounds(0.0, spec.size_s_blocks, d):
                plan = tape_scan_plan(
                    env.file_s, offset, target, layout.read_staging_blocks
                )
                yield from hash_tape_range(
                    env, layout, env.drive_s, env.file_s, plan, spec.relation_s,
                    write_buckets(env, s_buckets), overlap=False,
                )
                # Join phase: each R bucket back to memory, S bucket
                # scanned past it.  Each bucket is a checkpointed unit: a
                # media error restarts only the bucket it hit, not the
                # iteration.
                iteration = env.iterations
                for bucket, (r_bucket, s_extent) in enumerate(zip(r_sides, s_buckets)):
                    if s_extent.n_blocks <= 1e-9:
                        env.array.discard_content(s_extent)
                        continue
                    unit = functools.partial(
                        join_bucket, env, layout, r_bucket,
                        DiskBucket(env.array, s_extent),
                    )
                    yield from run_unit(env, f"II.{iteration}.b{bucket}", unit)
                env.count_r_scan()
                env.count_iteration()
        for extent in r_buckets + s_buckets:
            env.array.free(extent)


class ConcurrentGraceHash(_GraceHashBase):
    """CDT-GH: Concurrent Disk–Tape Grace Hash Join (Section 5.1.4).

    Step II runs a hash process and a join process concurrently
    (:func:`~repro.core.base.concurrent_step2`): the hash process reads S
    from tape and fills iteration *i+1*'s buckets into the interleaved
    disk buffer while the join process reads R buckets (from disk) and
    the S buckets of iteration *i*.
    """

    symbol = "CDT-GH"
    name = "Concurrent Disk-Tape Grace Hash Join"
    concurrent = True

    def _execute(self, env: JoinEnvironment) -> typing.Generator:
        spec = env.spec
        layout = GraceHashLayout(spec)
        r_buckets = yield from self._partition_r(env, layout, overlap=True)
        d = align_blocks_to_tuples(
            self._chunk_blocks(spec), spec.relation_s.tuples_per_block
        )
        r_sides = [
            RBucket(functools.partial(env.array.read_range, extent), extent.n_blocks)
            for extent in r_buckets
        ]
        yield from concurrent_step2(env, layout, d, r_sides)
        for extent in r_buckets:
            env.array.free(extent)
