"""Base class and shared machinery for tertiary join methods."""

from __future__ import annotations

import abc
import functools
import math
import typing

import numpy as np

from repro.buffering.interleaved import InterleavedDiskBuffer
from repro.core.environment import JoinEnvironment
from repro.faults.checkpoint import run_unit
from repro.relational.hashing import bucket_ids, partition_keys
from repro.relational.join_core import BuildSide
from repro.core.requirements import (
    GH_BUCKET_FRACTION,
    GH_BUCKET_TARGET_FRACTION,
    GH_PROBE_FRACTION,
    GH_READ_STAGING_FRACTION,
    GH_WRITE_STAGING_FRACTION,
    ResourceRequirements,
)
from repro.core.spec import InfeasibleJoinError, JoinSpec, JoinStats, ceil_div
from repro.faults.errors import MediaError, NonRestartableError
from repro.storage.block import DataChunk
from repro.storage.tape import TapeDrive, TapeFile


class TertiaryJoinMethod(abc.ABC):
    """One of the paper's seven join methods, runnable against a spec."""

    #: Short identifier used in the paper's tables/figures (e.g. "CDT-GH").
    symbol: str = ""
    #: Full descriptive name.
    name: str = ""
    #: True for methods exploiting parallel tape/disk I/O.
    concurrent: bool = False
    #: "nested-block" or "grace-hash".
    family: str = ""
    #: True when Step II reads buckets back from *tape*: the method holds
    #: both drives for the whole join (CTT's concurrent scratch drive,
    #: TT's bucket-by-bucket reread), and |R| need not fit on disk.
    #: Every other method releases the R drive after Step I.
    tape_step2: bool = False
    #: True when Step I's output is a disk-resident R hash partition the
    #: partition cache (``repro.hsm``) can keep across joins.  The
    #: nested-block methods stage raw R pieces, not partitions, and the
    #: tape–tape methods leave nothing on disk.
    cacheable_step1: bool = False

    @abc.abstractmethod
    def requirements(self, spec: JoinSpec) -> ResourceRequirements:
        """Minimum resources this method needs for ``spec`` (Table 2 row)."""

    @abc.abstractmethod
    def _execute(self, env: JoinEnvironment) -> typing.Generator:
        """The method's main simulation process."""

    def validate(self, spec: JoinSpec) -> None:
        """Raise :class:`InfeasibleJoinError` if the spec cannot support us."""
        req = self.requirements(spec)
        if not req.fits(
            spec.memory_blocks,
            spec.disk_blocks,
            spec.effective_scratch_r(),
            spec.effective_scratch_s(),
        ):
            raise InfeasibleJoinError(
                f"{self.symbol} needs M>={req.memory_blocks:.1f}, "
                f"D>={req.disk_blocks:.1f}, T_R>={req.tape_scratch_r_blocks:.1f}, "
                f"T_S>={req.tape_scratch_s_blocks:.1f} blocks; got "
                f"M={spec.memory_blocks:.1f}, D={spec.disk_blocks:.1f}, "
                f"T_R={spec.effective_scratch_r():.1f}, "
                f"T_S={spec.effective_scratch_s():.1f}"
            )

    def run(self, spec: JoinSpec) -> JoinStats:
        """Validate, build an environment, simulate to completion."""
        self.validate(spec)
        env = JoinEnvironment(spec)
        main = env.sim.process(self._execute(env), name=self.symbol)
        env.sim.run(main)
        env.sim.run()  # drain any same-time stragglers
        return env.finalize(self.name, self.symbol)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.symbol}>"


#: Tolerance of :func:`scan_tape`'s chunk loop, in blocks.
_SCAN_EPS = 1e-9


def scan_tape(
    env: JoinEnvironment,
    drive: TapeDrive,
    file: TapeFile,
    start_block: float,
    n_blocks: float,
    chunk_blocks: float,
    consume: typing.Callable[[DataChunk], typing.Generator],
    overlap: bool,
    reverse: bool = False,
) -> typing.Generator:
    """Scan ``n_blocks`` of a tape file in chunks, feeding each to ``consume``.

    With ``overlap=True`` the next chunk's tape read is issued before
    ``consume`` runs on the current chunk, so disk-side work overlaps tape
    I/O (the paper's double-buffering).  The caller must have reserved
    memory for two in-flight chunks; with ``overlap=False`` the scan is
    strictly sequential (one chunk of memory).

    ``reverse=True`` visits the chunks back to front — on a drive with
    READ REVERSE an alternating-direction rescan then needs no
    repositioning (footnote 2 of the paper; the join algorithms are
    independent of the order in which tuples are scanned).
    """
    if chunk_blocks <= 0:
        raise ValueError(f"chunk_blocks must be positive, got {chunk_blocks}")
    # A range within the chunk loop's tolerance holds no chunk (the
    # ``ceil_div`` slack can leave a last iteration that small): it is
    # empty in both modes.
    if n_blocks <= _SCAN_EPS:
        return
    bounds: list[tuple[float, float]] = []
    offset = 0.0
    while offset < n_blocks - _SCAN_EPS:
        step = min(chunk_blocks, n_blocks - offset)
        bounds.append((start_block + offset, step))
        offset += step
    if reverse:
        bounds.reverse()
    if not overlap:
        for chunk_start, step in bounds:
            data = yield from drive.read_range(file, chunk_start, step)
            yield from consume(data)
        return
    sim = env.sim

    def prefetch(chunk_start: float, step: float):
        """The read of the next chunk, started one queue hop from now."""
        pending = sim.event()
        # A consume() fault may abandon the in-flight prefetch; defusing
        # keeps its own (possibly failed) completion from crashing the
        # kernel.  Awaited failures still throw into this generator.
        pending.defused = True
        sim.defer(lambda _arg: drive.read_range(file, chunk_start, step, done=pending))
        return pending

    pending = prefetch(*bounds[0])
    for index in range(len(bounds)):
        data = yield pending
        if index + 1 < len(bounds):
            pending = prefetch(*bounds[index + 1])
        yield from consume(data)


#: Minimum disk request size used by streaming scans; the paper's model
#: assumes requests of at least 30 blocks (and footnote 1 notes that disk
#: caching covers smaller logical reads), so scans through a smaller memory
#: buffer are still issued as 30-block physical requests.
MIN_DISK_REQUEST_BLOCKS = 30.0


def align_blocks_to_tuples(blocks: float, tuples_per_block: int) -> float:
    """Largest tuple-aligned block count not exceeding ``blocks``.

    Iteration targets must be tuple-aligned: hashed data is re-packed as
    ``keys / tuples_per_block`` blocks, so a boundary cutting through a
    tuple would let an iteration's bucket data overshoot its buffer by a
    fraction of a block.
    """
    aligned = math.floor(blocks * tuples_per_block + 1e-9) / tuples_per_block
    return max(aligned, 1.0 / tuples_per_block)


def scan_disk_and_join(
    env: JoinEnvironment,
    extent,
    buffer_blocks: float,
    held_keys: np.ndarray,
) -> typing.Generator:
    """Stream a disk-resident relation copy past in-memory held keys.

    Reads the extent sequentially through a ``buffer_blocks`` window
    (issued as at least :data:`MIN_DISK_REQUEST_BLOCKS`-block requests) and
    folds each piece's mini-join into the environment's accumulator.
    """
    held = BuildSide(held_keys)
    piece = max(buffer_blocks, MIN_DISK_REQUEST_BLOCKS)
    offset = 0.0
    total = extent.n_blocks
    while offset < total - 1e-9:
        step = min(piece, total - offset)
        data = yield from env.array.read_range(extent, offset, step)
        env.accumulator.add(held.probe(data.keys))
        offset += step
    env.count_r_scan()


class DiskBucket:
    """An S bucket in a plain disk extent (DT-GH, STAGE-GH).

    :meth:`pop` consumes chunks only after their read succeeds, so a
    restarted unit resumes with exactly the unjoined rest.
    """

    def __init__(self, array, extent):
        self.array = array
        self.extent = extent

    def pop(self, max_blocks: float) -> typing.Generator:
        """Read and consume up to ``max_blocks``; None once empty."""
        if self.extent.n_blocks <= 1e-9:
            return None
        return (yield from self.array.read_coalesced(self.extent, max_blocks))

    def peek(self, cursor: float | None, max_blocks: float) -> typing.Generator:
        """Read up to ``max_blocks`` at block offset ``cursor`` (None: the
        start) without consuming; returns ``(data or None, next cursor)``."""
        offset = cursor or 0.0
        if offset >= self.extent.n_blocks - 1e-9:
            return None, offset
        step = min(max_blocks, self.extent.n_blocks - offset)
        data = yield from self.array.read_range(self.extent, offset, step)
        return data, offset + step

    def discard(self) -> None:
        """Drop the content without I/O."""
        self.array.discard_content(self.extent)


class BufferedBucket:
    """One bucket of one iteration in an interleaved disk buffer (CDT/CTT)."""

    def __init__(self, sbuf: InterleavedDiskBuffer, iteration: int, tag: object):
        self.sbuf = sbuf
        self.key = (iteration, tag)

    def pop(self, max_blocks: float) -> typing.Generator:
        """Read and release up to ``max_blocks``; None once empty."""
        return self.sbuf.pop_coalesced(*self.key, max_blocks)

    def peek(self, cursor: int | None, max_blocks: float) -> typing.Generator:
        """Read from chunk index ``cursor`` on without releasing anything."""
        return self.sbuf.peek_coalesced(*self.key, cursor or 0, max_blocks)

    def discard(self) -> None:
        """Release the bucket's space without I/O."""
        self.sbuf.discard(*self.key)


def extent_reader(array, extent, consume: bool = False) -> typing.Callable:
    """R-bucket reader of a disk extent: one parallel ``read_all`` for the
    whole (resident) bucket, logical ranges for spill pieces."""

    def read(offset: float, n_blocks: float) -> typing.Generator:
        if offset == 0.0 and n_blocks == extent.n_blocks:
            return array.read_all(extent, consume=consume)
        return array.read_range(extent, offset, n_blocks)

    return read


def probe_resident(
    env: JoinEnvironment, r_keys: np.ndarray, s_bucket, probe_blocks: float
) -> typing.Generator:
    """Pop an S bucket piece by piece past memory-resident R keys."""
    held = BuildSide(r_keys)
    while True:
        piece = yield from s_bucket.pop(probe_blocks)
        if piece is None:
            return
        env.accumulator.add(held.probe(piece.keys))


def join_bucket(
    env: JoinEnvironment,
    layout: "GraceHashLayout",
    read_r_range: typing.Callable[[float, float], typing.Generator],
    r_total_blocks: float,
    s_bucket,
) -> typing.Generator:
    """Join one R bucket with its S bucket (one Grace-Hash Step II unit).

    ``read_r_range(offset, n_blocks)`` reads part of the R bucket;
    ``s_bucket`` has ``pop``/``peek``/``discard`` (:class:`DiskBucket`,
    :class:`BufferedBucket`, TT-GH's tape bucket).  The normal path holds
    the whole R bucket in memory and pops the S bucket past it.  If the R
    bucket outgrows the free memory (skewed keys — the paper assumes
    uniform hash values and has no such path), the *spill* path joins it
    in memory-sized pieces, re-reading the S bucket once per piece and
    discarding it at the end.
    """
    probe = layout.probe_blocks
    available = env.memory.free_blocks - probe
    if r_total_blocks <= available + 1e-9:
        r_data = yield from read_r_range(0.0, r_total_blocks)
        env.memory.take(r_data.n_blocks, "R bucket")
        try:
            yield from probe_resident(env, r_data.keys, s_bucket, probe)
        finally:
            # A media error mid-stream must not leak the bucket's memory:
            # the checkpointed restart re-takes it on the next attempt.
            env.memory.give(r_data.n_blocks)
        return

    env.count_overflow_bucket()
    piece_blocks = max(available, probe, 1.0)
    offset = 0.0
    while offset < r_total_blocks - 1e-9:
        step = min(piece_blocks, r_total_blocks - offset)
        r_piece = yield from read_r_range(offset, step)
        env.memory.take(r_piece.n_blocks, "R bucket piece")
        held = BuildSide(r_piece.keys)
        try:
            piece, cursor = yield from s_bucket.peek(None, probe)
            while piece is not None:
                env.accumulator.add(held.probe(piece.keys))
                piece, cursor = yield from s_bucket.peek(cursor, probe)
        finally:
            env.memory.give(r_piece.n_blocks)
        offset += step
    s_bucket.discard()


def hash_tape_range(
    env: JoinEnvironment, layout: "GraceHashLayout", drive: TapeDrive,
    file: TapeFile, offset: float, n_blocks: float, tuples_per_block: int,
    flush_burst: typing.Callable, *, chunk_blocks: float, overlap: bool,
    reverse: bool = False, **stager_options,
) -> typing.Generator:
    """Scan a tape range and hash its keys into buckets.

    A :class:`BucketStager` (``stager_options``: ``buckets``,
    ``threshold_blocks``) hands each full staging burst to
    ``flush_burst`` and drains at the end; the caller holds the memory.
    """
    stager = BucketStager(layout, tuples_per_block, flush_burst, **stager_options)

    def consume(data):
        yield from stager.add_keys(data.keys)

    yield from scan_tape(
        env, drive, file, offset, n_blocks, chunk_blocks, consume, overlap, reverse
    )
    yield from stager.drain()


def write_buckets(env: JoinEnvironment, extents: list) -> typing.Callable:
    """Flush burst writing each bucket's keys to its own disk extent."""
    return lambda writes: env.array.write_burst(
        [(extents[bucket], keys, n_blocks) for bucket, keys, n_blocks in writes]
    )


def concurrent_step2(
    env: JoinEnvironment,
    layout: "GraceHashLayout",
    d: float,
    r_bucket: typing.Callable[[int], tuple[typing.Callable, float]],
) -> typing.Generator:
    """Step II of CDT-GH and CTT-GH: a hash process and a join process.

    The hash process hashes ``d`` blocks of S per iteration from tape
    into an interleaved double-buffered disk region while the join
    process joins the previous iteration's buckets.  ``r_bucket(b)``
    gives R bucket *b*'s ``(read_r_range, r_total_blocks)``.
    """
    spec, sim = env.spec, env.sim
    tuples_per_block = spec.relation_s.tuples_per_block
    capacity = d + 2.0 / tuples_per_block + 1e-6  # two tuples of packing slack
    sbuf = InterleavedDiskBuffer(sim, env.array, "s_buffer", capacity, env.observer)
    n_iters = ceil_div(spec.size_s_blocks, d)

    def hasher():
        with env.memory.hold(
            layout.read_staging_blocks + layout.write_staging_blocks,
            "hash staging",
        ):
            offset = 0.0
            for iteration in range(n_iters):
                target = min(d, spec.size_s_blocks - offset)
                yield from hash_tape_range(
                    env, layout, env.drive_s, env.file_s, offset, target,
                    tuples_per_block, functools.partial(sbuf.put_many, iteration),
                    chunk_blocks=layout.scan_chunk_blocks, overlap=True,
                )
                sbuf.end_iteration(iteration)
                offset += target

    def joiner():
        for iteration in range(n_iters):
            yield sbuf.wait_iteration(iteration)
            for bucket in range(layout.n_buckets):
                if not sbuf.has_pending(iteration, bucket):
                    continue
                unit = functools.partial(
                    join_bucket, env, layout, *r_bucket(bucket),
                    BufferedBucket(sbuf, iteration, bucket),
                )
                key = f"II.{iteration}.b{bucket}"
                yield from run_unit(env, key, guard_overflow_restart(env, key, unit))
            env.count_r_scan()
            env.count_iteration()
            sbuf.finish_iteration(iteration)

    yield sim.all_of(
        [sim.process(hasher(), name="hash"), sim.process(joiner(), name="join")]
    )
    sbuf.close()


def guard_overflow_restart(
    env: JoinEnvironment,
    key: str,
    factory: typing.Callable[[], typing.Generator],
) -> typing.Callable[[], typing.Generator]:
    """Escalate media errors hitting a bucket's overflow (spill) path.

    The spill path rescans the same S bucket once per R piece through a
    peek cursor, so its partial work cannot be checkpointed: a restart
    would re-join pieces already accumulated.  Wrapping the unit factory
    with this guard turns a :class:`MediaError` raised after the unit
    entered the spill path into a terminal :class:`NonRestartableError`
    that :func:`repro.faults.checkpoint.run_unit` does not catch.
    """

    def guarded() -> typing.Generator:
        before = env.overflow_buckets
        try:
            return (yield from factory())
        except MediaError as exc:
            if env.overflow_buckets > before:
                raise NonRestartableError(
                    f"unit {key}: media error on the bucket-overflow (spill) "
                    f"path; its repeated S rescans cannot be checkpointed"
                ) from exc
            raise

    return guarded


class GraceHashLayout:
    """Bucket count and memory split shared by all Grace-Hash methods.

    ``n_buckets`` is chosen so one R bucket fits in the
    :data:`GH_BUCKET_FRACTION` share of M (the paper's B = |R|/M with the
    staging buffers "included in M"); the remaining memory is split between
    tape-read staging and per-bucket write staging.
    """

    def __init__(self, spec: JoinSpec):
        memory = spec.memory_blocks
        self.bucket_memory_blocks = GH_BUCKET_FRACTION * memory
        self.n_buckets = max(
            1, math.ceil(spec.size_r_blocks / (GH_BUCKET_TARGET_FRACTION * memory))
        )
        self.read_staging_blocks = GH_READ_STAGING_FRACTION * memory
        self.write_staging_blocks = GH_WRITE_STAGING_FRACTION * memory
        self.probe_blocks = GH_PROBE_FRACTION * memory
        #: chunk size for overlapped tape scans (two chunks in flight).
        self.scan_chunk_blocks = self.read_staging_blocks / 2


class BucketStager:
    """Per-bucket in-memory staging for hash partitioning.

    Partitioned keys accumulate per bucket inside the method's write
    staging share of M.  When the share fills, every non-empty bucket is
    flushed together through ``flush_burst`` — "the buffer allows for
    larger disk writes which help reduce the seek penalty" (Section 6).
    Smaller M means a smaller staging share, smaller fragments and more
    random I/O, which is exactly the small-memory degradation of
    Figures 8–9.

    A flush is one batch: the staged pool is sorted by bucket once
    (:func:`~repro.relational.hashing.partition_keys`) and
    ``flush_burst`` (a generator) receives one ``(bucket, keys,
    n_blocks)`` triple per non-empty bucket, in bucket order, where
    ``keys`` is a view into the sorted pool and ``n_blocks`` its dense
    footprint at ``tuples_per_block``.
    """

    def __init__(
        self,
        layout: GraceHashLayout,
        tuples_per_block: int,
        flush_burst: typing.Callable[
            [list[tuple[int, np.ndarray, float]]], typing.Generator
        ],
        buckets: typing.Iterable[int] | None = None,
        threshold_blocks: float | None = None,
    ):
        if tuples_per_block <= 0:
            raise ValueError("tuples_per_block must be positive")
        self.layout = layout
        self.tuples_per_block = tuples_per_block
        self.flush_burst = flush_burst
        self.wanted = None
        if buckets is not None:
            self.wanted = np.zeros(layout.n_buckets, dtype=bool)
            self.wanted[list(buckets)] = True
        self._staged: list[np.ndarray] = []
        self._total_tuples = 0
        if threshold_blocks is None:
            threshold_blocks = layout.write_staging_blocks
        self._threshold_tuples = max(1, round(threshold_blocks * tuples_per_block))

    def add_keys(self, keys: np.ndarray) -> typing.Generator:
        """Stage raw keys; partition and flush once staging fills.

        With a ``buckets`` filter, keys routed to other buckets are
        discarded immediately (the hash-to-tape scans keep only the
        current group's buckets) and do not count against staging.
        """
        if self.wanted is not None:
            keys = keys[self.wanted[bucket_ids(keys, self.layout.n_buckets)]]
        if len(keys) == 0:
            return
        self._staged.append(keys)
        self._total_tuples += len(keys)
        if self._total_tuples >= self._threshold_tuples:
            yield from self._flush_all()

    def drain(self) -> typing.Generator:
        """Flush whatever remains staged."""
        if self._total_tuples > 0:
            yield from self._flush_all()

    def _flush_all(self) -> typing.Generator:
        pool = self._staged[0] if len(self._staged) == 1 else np.concatenate(self._staged)
        self._staged = []
        self._total_tuples = 0
        sorted_keys, ends = partition_keys(pool, self.layout.n_buckets)
        tuples_per_block = self.tuples_per_block
        writes = []
        lo = 0
        for bucket, hi in enumerate(ends):
            if hi > lo:
                writes.append((bucket, sorted_keys[lo:hi], (hi - lo) / tuples_per_block))
                lo = hi
        yield from self.flush_burst(writes)
