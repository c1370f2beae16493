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
from repro.relational.hashing import BucketIndex
from repro.relational.relation import Relation
from repro.relational.join_core import BuildSide
from repro.core.requirements import (
    GH_BUCKET_FRACTION,
    GH_BUCKET_TARGET_FRACTION,
    GH_PROBE_FRACTION,
    GH_READ_STAGING_FRACTION,
    GH_WRITE_STAGING_FRACTION,
    ResourceRequirements,
)
from repro.core.spec import InfeasibleJoinError, JoinSpec, JoinStats, scan_bounds
from repro.costmodel.parameters import SystemParameters
from repro.storage.block import DataChunk, tuple_range
from repro.storage.tape import TapeDrive, TapeFile


class TertiaryJoinMethod(abc.ABC):
    """One of the paper's seven join methods, runnable against a spec."""

    #: Short identifier used in the paper's tables/figures (e.g. "CDT-GH").
    symbol: str = ""
    #: Full descriptive name.
    name: str = ""
    #: The method's row of the paper's Table 2, verbatim: M, D, T_R, T_S.
    table2: tuple[str, str, str, str] = ("", "", "", "")
    #: True for methods exploiting parallel tape/disk I/O.
    concurrent: bool = False
    #: True when each S piece passes through disk on its way to the join
    #: (written once, read back once): CDT-NB/DB's disk double buffer and
    #: the Grace-Hash methods' S buckets.
    stages_s_on_disk: bool = False
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
    def requirements(self, p: SystemParameters) -> ResourceRequirements:
        """Minimum resources for a join of ``p``'s |R| and |S| at ``p``'s M
        (Table 2 row).  Only those sizes are read, so a
        :class:`~repro.core.spec.JoinSpec` serves as well."""

    @abc.abstractmethod
    def _execute(self, env: JoinEnvironment) -> typing.Generator:
        """The method's main simulation process."""

    def _chunk_blocks(self, spec: JoinSpec | SystemParameters) -> float:
        """|S_i|: the piece of S consumed per Step II iteration (the
        disk–tape methods and CTT-GH; the cost model reads it too)."""
        raise NotImplementedError

    def infeasibility(self, p: SystemParameters) -> str | None:
        """Why Table 2 rules this method out under ``p``'s M, D, T_R and
        T_S, or None when it fits.

        The one feasibility rule: :meth:`validate` and the cost model's
        :func:`~repro.costmodel.formulas.estimate` both ask it.
        """
        req = self.requirements(p)
        budgets = (p.memory_blocks, p.disk_blocks, p.scratch_r_blocks, p.scratch_s_blocks)
        if req.fits(*budgets):
            return None
        return (
            f"{self.symbol} needs M>={req.memory_blocks:.1f}, "
            f"D>={req.disk_blocks:.1f}, T_R>={req.tape_scratch_r_blocks:.1f}, "
            f"T_S>={req.tape_scratch_s_blocks:.1f} blocks; got "
            f"M={p.memory_blocks:.1f}, D={p.disk_blocks:.1f}, "
            f"T_R={p.scratch_r_blocks:.1f}, T_S={p.scratch_s_blocks:.1f}"
        )

    def validate(self, spec: JoinSpec) -> None:
        """Raise :class:`InfeasibleJoinError` if the spec cannot support us."""
        reason = self.infeasibility(SystemParameters.from_spec(spec))
        if reason is not None:
            raise InfeasibleJoinError(reason)

    def run(self, spec: JoinSpec) -> JoinStats:
        """Validate, build an environment, simulate to completion."""
        self.validate(spec)
        return self.simulate(JoinEnvironment(spec))

    def simulate(self, env: JoinEnvironment) -> JoinStats:
        """Run the join in ``env`` from its clock to completion, unvalidated."""
        main = env.sim.process(self._execute(env), name=self.symbol)
        env.sim.run(main)
        env.sim.run()  # drain any same-time stragglers
        return env.finalize(self.name, self.symbol)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.symbol}>"


def scan_tape(
    env: JoinEnvironment,
    drive: TapeDrive,
    file: TapeFile,
    reads: list[tuple[float, float]],
    consume: typing.Callable[[DataChunk | None], typing.Generator],
    overlap: bool,
    keys: bool = True,
) -> typing.Generator:
    """Read a tape file's ``reads``, in order, feeding each to ``consume``.

    ``reads`` are a scan's ``(start, n_blocks)`` pieces from
    :func:`~repro.core.spec.scan_bounds`, in scan order: back to front
    for a reverse scan, which on a drive with READ REVERSE follows an
    alternating-direction rescan with no repositioning (footnote 2 of
    the paper; the join algorithms are independent of the order in
    which tuples are scanned).

    With ``overlap=True`` the next chunk's tape read is issued before
    ``consume`` runs on the current chunk, so disk-side work overlaps tape
    I/O (the paper's double-buffering).  The caller must have reserved
    memory for two in-flight chunks; with ``overlap=False`` the scan is
    strictly sequential (one chunk of memory).  With ``keys=False`` each
    read is the same device op but hands ``consume`` None instead of its
    data (see :meth:`~repro.storage.tape.TapeDrive.read_range`).
    """
    if not reads:
        return
    if not overlap:
        for chunk_start, step in reads:
            data = yield from drive.read_range(file, chunk_start, step, keys=keys)
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
        sim._schedule(
            lambda _arg: drive.read_range(
                file, chunk_start, step, done=pending, keys=keys
            ),
            None,
        )
        return pending

    pending = prefetch(*reads[0])
    for index in range(len(reads)):
        data = yield pending
        if index + 1 < len(reads):
            pending = prefetch(*reads[index + 1])
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
    r_side: "RBucket",
    buffer_blocks: float,
    s_keys: np.ndarray,
) -> typing.Generator:
    """One nested-block iteration: scan the disk copy of R past an S window.

    Reads ``r_side`` sequentially through a ``buffer_blocks`` window
    (issued as at least :data:`MIN_DISK_REQUEST_BLOCKS`-block requests),
    then probes the in-memory S window ``s_keys`` once against R's build
    side, which the first scan of the join groups from its pieces.  A
    probe sums the held count times ``mix(k)`` over the streamed tuples,
    so holding R and streaming S gives the bits of the paper's held S
    window with R streamed past it.
    """
    piece = max(buffer_blocks, MIN_DISK_REQUEST_BLOCKS)
    pieces = [] if r_side.built is None else None
    for offset, step in scan_bounds(0.0, r_side.n_blocks, piece):
        data = yield from r_side.read(offset, step)
        if pieces is not None:
            pieces.append(data.keys)
    env.probe(r_side.build(env, pieces), s_keys)
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


class RBucket:
    """The R side of a Step II unit: its reader, size and build.

    ``read(offset, n_blocks)`` reads part of it (a generator returning a
    :class:`~repro.storage.block.DataChunk`); ``n_blocks`` is its size.
    It is one Grace-Hash R bucket, or the nested-block methods' whole
    disk copy of R.  R does not change during Step II, so its
    :class:`BuildSide` is built from the pieces of its first read of the
    join (a whole bucket, the spill path's pieces, or the first scan of
    the R copy) and reused by every later iteration and every restarted
    attempt.  Each read still moves the data and charges its device time
    and memory.
    """

    __slots__ = ("read", "n_blocks", "built")

    def __init__(
        self, read: typing.Callable[[float, float], typing.Generator], n_blocks: float
    ):
        self.read = read
        self.n_blocks = n_blocks
        #: The build side once built, else None.
        self.built: BuildSide | None = None

    def build(self, env: JoinEnvironment, pieces: list[np.ndarray]) -> BuildSide:
        """The build side, grouped from the key ``pieces`` the first time
        (later calls ignore them)."""
        if self.built is None:
            keys = pieces[0] if len(pieces) == 1 else np.concatenate(pieces)
            self.built = env.build(keys)
        return self.built


def probe_resident(
    env: JoinEnvironment, held: BuildSide, s_bucket, probe_blocks: float
) -> typing.Generator:
    """Pop an S bucket piece by piece past a memory-resident R bucket.

    Each pop reads and consumes at most ``probe_blocks``, so device ops
    and memory are exactly those of a probe per piece; the popped keys
    are probed against ``held`` together, once.  If an exception escapes
    a pop, the ``finally`` probes what was popped before it: those
    pieces are consumed and a restarted unit never sees them again,
    while a failed pop consumed nothing.  Each piece counts exactly once.
    """
    pieces = []
    try:
        piece = yield from s_bucket.pop(probe_blocks)
        while piece is not None:
            pieces.append(piece.keys)
            piece = yield from s_bucket.pop(probe_blocks)
    finally:
        if pieces:
            env.probe(held, np.concatenate(pieces))


def join_bucket(
    env: JoinEnvironment,
    layout: "GraceHashLayout",
    r_bucket: RBucket,
    s_bucket,
) -> typing.Generator:
    """Join one R bucket with its S bucket (one Grace-Hash Step II unit).

    ``s_bucket`` has ``pop``/``peek``/``discard`` (:class:`DiskBucket`,
    :class:`BufferedBucket`, TT-GH's tape bucket).  The normal path
    reads the whole R bucket into memory and pops the S bucket past it
    with :func:`probe_resident`.  If the R bucket outgrows the free
    memory (skewed keys, or hash variance over few tuples — the paper
    assumes uniform hash values and has no such path), the *spill* path
    reads it in memory-sized pieces, re-reads the S bucket once per
    piece and discards it at the end.  Either way the unit probes once
    against the build side ``r_bucket`` keeps for the whole join: the
    spill path probes the S keys of one rescan after the last piece,
    which gives the sum of the per-piece joins.  :func:`run_unit`
    restarts a spilled unit exactly like a resident one: the spill path
    consumes nothing before its final ``discard`` and probes only after
    its last read, so a replay joins each tuple once.
    """
    probe = layout.probe_blocks
    available = env.memory.free_blocks - probe
    r_total_blocks = r_bucket.n_blocks
    if r_total_blocks <= available + 1e-9:
        r_data = yield from r_bucket.read(0.0, r_total_blocks)
        env.memory.take(r_data.n_blocks, "R bucket")
        try:
            held = r_bucket.build(env, [r_data.keys])
            yield from probe_resident(env, held, s_bucket, probe)
        finally:
            # A media error mid-stream must not leak the bucket's memory:
            # the checkpointed restart re-takes it on the next attempt.
            env.memory.give(r_data.n_blocks)
        return

    piece_blocks = max(available, probe, 1.0)
    r_pieces: list[np.ndarray] = []
    s_pieces: list[np.ndarray] = []
    for offset, step in scan_bounds(0.0, r_total_blocks, piece_blocks):
        r_piece = yield from r_bucket.read(offset, step)
        env.memory.take(r_piece.n_blocks, "R bucket piece")
        try:
            # Every rescan reads the same, unconsumed S bucket.
            s_pieces = []
            piece, cursor = yield from s_bucket.peek(None, probe)
            while piece is not None:
                s_pieces.append(piece.keys)
                piece, cursor = yield from s_bucket.peek(cursor, probe)
        finally:
            env.memory.give(r_piece.n_blocks)
        r_pieces.append(r_piece.keys)
    # Counted after the last rescan: a restarted unit counts once.
    env.count_overflow_bucket()
    s_bucket.discard()
    if s_pieces:
        held = r_bucket.build(env, r_pieces)
        env.probe(held, np.concatenate(s_pieces))


def tape_scan_plan(
    file: TapeFile, start_block: float, n_blocks: float, chunk_blocks: float
) -> tuple[list[tuple[float, float]], list[tuple[int, int]]]:
    """A forward scan of a tape file range: its reads
    (:func:`~repro.core.spec.scan_bounds`) and each read's tuple range
    ``[first, last)`` in the file.  Reverse both lists for the reverse
    scan."""
    reads = scan_bounds(start_block, n_blocks, chunk_blocks)
    return reads, [tuple_range(file.chunks, start, step) for start, step in reads]


def hash_tape_range(
    env: JoinEnvironment, layout: "GraceHashLayout", drive: TapeDrive,
    file: TapeFile, plan: tuple[list, list], relation: Relation,
    flush_burst: typing.Callable, *, overlap: bool, **stager_options,
) -> typing.Generator:
    """Scan ``relation``'s tape file along ``plan`` and hash it into buckets.

    ``plan`` is a :func:`tape_scan_plan` (reversed for a reverse scan).
    A :class:`BucketStager` over the join's bucket index of ``relation``
    (``stager_options``: ``buckets``, ``threshold_blocks``) takes each
    read's tuple range, hands each full staging burst to ``flush_burst``
    and drains at the end; the caller holds the memory.  The index
    already holds the keys, so the reads slice none out.
    """
    reads, tuples = plan
    stager = BucketStager(
        layout, env.bucket_index(relation, layout.n_buckets),
        relation.tuples_per_block, flush_burst, tuples, **stager_options,
    )

    def consume(_data):
        # scan_tape hands over the plan's reads in order.
        yield from stager.add_read()

    yield from scan_tape(env, drive, file, reads, consume, overlap, keys=False)
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
    r_buckets: list[RBucket],
) -> typing.Generator:
    """Step II of CDT-GH and CTT-GH: a hash process and a join process.

    The hash process hashes ``d`` blocks of S per iteration from tape
    into an interleaved double-buffered disk region while the join
    process joins the previous iteration's buckets against
    ``r_buckets``, whose build sides carry over from one iteration to
    the next.
    """
    spec, sim = env.spec, env.sim
    tuples_per_block = spec.relation_s.tuples_per_block
    capacity = d + 2.0 / tuples_per_block + 1e-6  # two tuples of packing slack
    sbuf = InterleavedDiskBuffer(sim, env.array, "s_buffer", capacity, env.observer)
    pieces = scan_bounds(0.0, spec.size_s_blocks, d)

    def hasher():
        with env.memory.hold(
            layout.read_staging_blocks + layout.write_staging_blocks,
            "hash staging",
        ):
            for iteration, (offset, target) in enumerate(pieces):
                plan = tape_scan_plan(
                    env.file_s, offset, target, layout.scan_chunk_blocks
                )
                yield from hash_tape_range(
                    env, layout, env.drive_s, env.file_s, plan, spec.relation_s,
                    functools.partial(sbuf.put_many, iteration), overlap=True,
                )
                sbuf.end_iteration(iteration)

    def joiner():
        for iteration in range(len(pieces)):
            yield sbuf.wait_iteration(iteration)
            for bucket in range(layout.n_buckets):
                if not sbuf.has_pending(iteration, bucket):
                    continue
                unit = functools.partial(
                    join_bucket, env, layout, r_buckets[bucket],
                    BufferedBucket(sbuf, iteration, bucket),
                )
                yield from run_unit(env, f"II.{iteration}.b{bucket}", unit)
            env.count_r_scan()
            env.count_iteration()
            sbuf.finish_iteration(iteration)

    yield sim.all_of(
        [sim.process(hasher(), name="hash"), sim.process(joiner(), name="join")]
    )
    sbuf.close()


class GraceHashLayout:
    """Bucket count and memory split shared by all Grace-Hash methods.

    ``n_buckets`` is chosen so one R bucket fits in the
    :data:`GH_BUCKET_FRACTION` share of M (the paper's B = |R|/M with the
    staging buffers "included in M"); the remaining memory is split between
    tape-read staging and per-bucket write staging.  The cost model builds
    one from :class:`SystemParameters` to price TT-GH's B bucket passes.
    """

    def __init__(self, spec: JoinSpec | SystemParameters):
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

    Scanned tuples accumulate per bucket inside the method's write
    staging share of M.  When the share fills, every non-empty bucket is
    flushed together through ``flush_burst`` — "the buffer allows for
    larger disk writes which help reduce the seek penalty" (Section 6).
    Smaller M means a smaller staging share, smaller fragments and more
    random I/O, which is exactly the small-memory degradation of
    Figures 8–9.

    Every scan reads a relation in order, so the stager is given the
    tuple range ``[first, last)`` of each of the scan's ``reads``, in
    scan order, and ``index`` (the join's
    :class:`~repro.relational.hashing.BucketIndex` of the relation)
    already holds the keys grouped by bucket.  One ``searchsorted``
    (:meth:`~repro.relational.hashing.BucketIndex.cuts`) finds, at every
    read edge, where each bucket's slice of the index begins; a read's
    kept tuples are the difference of two prefix counts.  A flush is one
    batch: ``flush_burst`` (a generator) receives one ``(bucket, keys,
    n_blocks)`` triple per non-empty bucket, in bucket order, where
    ``keys`` holds the bucket's staged tuples in scan order — a view into
    the index when the staged reads adjoin (a forward scan), their slices
    concatenated in staged order otherwise (a reverse scan) — and
    ``n_blocks`` is their dense footprint at ``tuples_per_block``.
    """

    def __init__(
        self,
        layout: GraceHashLayout,
        index: BucketIndex,
        tuples_per_block: int,
        flush_burst: typing.Callable[
            [list[tuple[int, np.ndarray, float]]], typing.Generator
        ],
        reads: list[tuple[int, int]],
        buckets: typing.Iterable[int] | None = None,
        threshold_blocks: float | None = None,
    ):
        if tuples_per_block <= 0:
            raise ValueError("tuples_per_block must be positive")
        self.index = index
        self.tuples_per_block = tuples_per_block
        self.flush_burst = flush_burst
        self._buckets = (
            list(range(layout.n_buckets)) if buckets is None else sorted(set(buckets))
        )
        edges = sorted({position for read in reads for position in read})
        edge_of = {position: number for number, position in enumerate(edges)}
        #: Each read as its (first, last) edge numbers, in scan order.
        self._reads = [(edge_of[first], edge_of[last]) for first, last in reads]
        self._cuts = index.cuts(self._buckets, edges)
        self._kept_before = self._cuts.sum(axis=1).tolist()
        self._next_read = 0
        #: Staged edge spans in staging order; adjoining reads merge.
        self._staged: list[list[int]] = []
        self._total_tuples = 0
        if threshold_blocks is None:
            threshold_blocks = layout.write_staging_blocks
        self._threshold_tuples = max(1, round(threshold_blocks * tuples_per_block))

    def add_read(self) -> typing.Generator:
        """Stage the scan's next read; flush once staging fills.

        With a ``buckets`` filter only those buckets' tuples are kept
        (the hash-to-tape scans keep only the current group's buckets),
        and only they count against staging.
        """
        first, last = self._reads[self._next_read]
        self._next_read += 1
        staged = self._staged
        if staged and staged[-1][1] == first:
            staged[-1][1] = last  # a forward scan's reads adjoin
        else:
            staged.append([first, last])
        self._total_tuples += self._kept_before[last] - self._kept_before[first]
        if self._total_tuples >= self._threshold_tuples:
            yield from self._flush_all()

    def drain(self) -> typing.Generator:
        """Flush whatever remains staged."""
        if self._total_tuples > 0:
            yield from self._flush_all()

    def _flush_all(self) -> typing.Generator:
        staged = self._staged
        self._staged = []
        self._total_tuples = 0
        keys = self.index.keys
        cuts = self._cuts
        tuples_per_block = self.tuples_per_block
        writes = []
        if len(staged) == 1:
            (first, last), = staged
            for bucket, lo, hi in zip(
                self._buckets, cuts[first].tolist(), cuts[last].tolist()
            ):
                if hi > lo:
                    writes.append((bucket, keys[lo:hi], (hi - lo) / tuples_per_block))
        else:
            # A reverse scan: each bucket's slices in staged order.
            starts = cuts[[first for first, _ in staged]].T.tolist()
            ends = cuts[[last for _, last in staged]].T.tolist()
            for bucket, los, his in zip(self._buckets, starts, ends):
                parts = [keys[lo:hi] for lo, hi in zip(los, his) if hi > lo]
                if parts:
                    joined = parts[0] if len(parts) == 1 else np.concatenate(parts)
                    writes.append((bucket, joined, len(joined) / tuples_per_block))
        yield from self.flush_burst(writes)
