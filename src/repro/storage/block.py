"""Block units and data chunks.

The paper's cost model counts *blocks transferred*.  A :class:`BlockSpec`
fixes the block size and provides unit conversions; a :class:`DataChunk` is
the payload actually moved by device operations — a numpy array of join keys
plus the number of blocks it occupies on media.  A :class:`ChunkRun` is
stored content, tape file and disk extent alike: chunks in write order,
read by block range.

A read that takes its keys from one stored piece — a tape file holds its
relation as one chunk, and many disk reads fetch one stored chunk —
returns a read-only view of that piece's keys, not a copy.  Relations'
keys are read-only too, so no consumer of a read can write into data that
other reads share.

Block counts are floats throughout: the transfer-only cost model charges
per block transferred, and fractional trailing blocks keep the accounting
smooth (the paper's formulas do the same by working in block counts).
"""

from __future__ import annotations

import dataclasses
import math
import typing

import numpy as np

MB = 1024 * 1024


@dataclasses.dataclass(frozen=True)
class BlockSpec:
    """Fixes the size of one block and converts between units.

    The default 100 KB block keeps the paper's MB-scale experiments at a
    few thousand to a hundred thousand blocks — fine-grained enough for
    smooth curves, coarse enough for fast simulation.
    """

    block_bytes: int = 100 * 1024

    def __post_init__(self):
        if self.block_bytes <= 0:
            raise ValueError(f"block_bytes must be positive, got {self.block_bytes}")

    def bytes_from_blocks(self, n_blocks: float) -> float:
        """Byte count of ``n_blocks`` blocks."""
        return n_blocks * self.block_bytes

    def blocks_from_mb(self, n_mb: float) -> float:
        """Blocks covering ``n_mb`` megabytes."""
        return n_mb * MB / self.block_bytes

    def mb_from_blocks(self, n_blocks: float) -> float:
        """Megabytes in ``n_blocks`` blocks."""
        return n_blocks * self.block_bytes / MB

    def tuples_per_block(self, tuple_bytes: int) -> int:
        """Whole tuples fitting in one block."""
        if tuple_bytes <= 0:
            raise ValueError(f"tuple_bytes must be positive, got {tuple_bytes}")
        per_block = self.block_bytes // tuple_bytes
        if per_block < 1:
            raise ValueError(
                f"tuple of {tuple_bytes} bytes does not fit in a "
                f"{self.block_bytes}-byte block"
            )
        return per_block


_EMPTY_KEYS = np.empty(0, dtype=np.int64)


def _read_only(keys: np.ndarray) -> np.ndarray:
    """``keys``, a view nobody else holds, made read-only."""
    keys.flags.writeable = False
    return keys


class DataChunk:
    """A contiguous run of tuples occupying ``n_blocks`` blocks of media.

    ``keys`` holds the join-attribute values of every tuple in the chunk.
    Devices move chunks; join logic consumes their key arrays.
    """

    __slots__ = ("keys", "n_blocks")

    def __init__(self, keys: np.ndarray, n_blocks: float):
        if n_blocks < 0:
            raise ValueError(f"n_blocks must be >= 0, got {n_blocks}")
        if len(keys) > 0 and n_blocks == 0:
            raise ValueError("non-empty chunk cannot occupy zero blocks")
        self.keys = np.asarray(keys, dtype=np.int64)
        self.n_blocks = float(n_blocks)

    @classmethod
    def _of(cls, keys: np.ndarray, n_blocks: float) -> "DataChunk":
        """A chunk from parts that are valid by construction (int64 keys,
        a float block count), skipping the checks of ``__init__``."""
        chunk = cls.__new__(cls)
        chunk.keys = keys
        chunk.n_blocks = n_blocks
        return chunk

    @classmethod
    def empty(cls) -> "DataChunk":
        """A chunk with no tuples and no blocks."""
        return cls(_EMPTY_KEYS, 0.0)

    @classmethod
    def from_keys(cls, keys: np.ndarray, tuples_per_block: int) -> "DataChunk":
        """Pack ``keys`` densely at ``tuples_per_block`` tuples per block."""
        if tuples_per_block <= 0:
            raise ValueError("tuples_per_block must be positive")
        keys = np.asarray(keys, dtype=np.int64)
        return cls(keys, len(keys) / tuples_per_block)

    @classmethod
    def concat(cls, chunks: typing.Sequence[typing.Any]) -> "DataChunk":
        """Concatenate chunks, summing their block footprints.

        Takes anything with ``keys`` and ``n_blocks``: data chunks or
        the disk array's stored-chunk handles.  One chunk's keys come back
        as a read-only view, not a copy.
        """
        if not chunks:
            return cls.empty()
        if len(chunks) == 1:
            (chunk,) = chunks
            return cls._of(_read_only(chunk.keys[:]), float(chunk.n_blocks))
        keys = np.concatenate([c.keys for c in chunks])
        return cls._of(keys, float(sum(c.n_blocks for c in chunks)))

    @property
    def n_tuples(self) -> int:
        """Number of tuples in the chunk."""
        return len(self.keys)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<DataChunk {self.n_tuples} tuples / {self.n_blocks:.2f} blocks>"


def tuple_index(position: float) -> int:
    """Round a fractional tuple position to a boundary index, stably.

    Adjacent range reads recompute the same real boundary through
    different float expressions (``(a + b) + c`` vs ``a + (b + c)``), so
    the values may differ by an ulp.  Banker's rounding would then send
    an exact ``x.5`` boundary to *different* integers on the two sides,
    duplicating or dropping a tuple.  A floor with a small positive bias
    maps every representation of the same real boundary to one index.
    """
    return int(math.floor(position + 0.5 + 1e-6))


def _walk(
    chunks: typing.Iterable[typing.Any], offset_blocks: float, n_blocks: float
) -> typing.Iterator[tuple[np.ndarray, int, int, int, float]]:
    """``(keys, seen, first, last, blocks)`` of each chunk that block range
    [offset, offset + n_blocks) of ``chunks`` touches, in order: its
    tuples ``[first, last)`` and ``blocks`` of its blocks lie in the
    range, and ``seen`` tuples come before it.

    Keys are mapped proportionally within each chunk, which is exact for
    densely packed relation data.  Reads only each chunk's ``keys`` and
    ``n_blocks``.
    """
    end = offset_blocks + n_blocks
    seen = 0
    base = 0.0
    for chunk in chunks:
        keys, size = chunk.keys, chunk.n_blocks
        lo = max(offset_blocks, base)
        hi = min(end, base + size)
        if hi > lo and size > 0:
            density = len(keys) / size
            first = tuple_index((lo - base) * density)
            yield keys, seen, first, tuple_index((hi - base) * density), hi - lo
        seen += len(keys)
        base += size
        if base >= end:
            break


def tuple_range(
    chunks: typing.Iterable[typing.Any], offset_blocks: float, n_blocks: float
) -> tuple[int, int]:
    """Positions ``[first, last)`` of the tuples :func:`slice_chunks`
    returns for the same block range, counted across ``chunks`` in order.

    The same walk as the slice, so a scan of a relation's in-order copy
    can name the tuples a read returns without looking at its keys.  An
    empty range gives ``(0, 0)``.
    """
    first = last = None
    for _keys, seen, lo, hi, _blocks in _walk(chunks, offset_blocks, n_blocks):
        if first is None:
            first = seen + lo
        last = seen + hi
    return (0, 0) if first is None else (first, last)


def check_range(total_blocks: float, offset_blocks: float, n_blocks: float) -> None:
    """Raise ValueError unless [offset, offset + n_blocks) lies within
    ``total_blocks`` blocks."""
    if offset_blocks < 0 or n_blocks < 0:
        raise ValueError("offset and length must be non-negative")
    end = offset_blocks + n_blocks
    if end > total_blocks + 1e-9:
        raise ValueError(f"range [{offset_blocks}, {end}) beyond {total_blocks} blocks")


def slice_chunks(
    chunks: typing.Iterable[typing.Any],
    total_blocks: float,
    offset_blocks: float,
    n_blocks: float,
) -> DataChunk:
    """Tuples stored in block range [offset, offset + n_blocks) of ``chunks``.

    A range within one chunk returns a read-only view of that chunk's
    keys.
    """
    check_range(total_blocks, offset_blocks, n_blocks)
    # Accumulate raw key slices rather than intermediate DataChunk pieces:
    # range reads dominate the simulation hot path, and the per-piece
    # object churn is measurable at experiment scale.
    pieces = []
    blocks = 0.0
    for keys, _seen, first, last, span in _walk(chunks, offset_blocks, n_blocks):
        pieces.append(keys[first:last])
        blocks += span
    if not pieces:
        return DataChunk.empty()
    if len(pieces) == 1:
        return DataChunk._of(_read_only(pieces[0]), blocks)
    return DataChunk._of(np.concatenate(pieces), blocks)


class ChunkRun:
    """Chunks in write order, addressed by block offset: the content of a
    tape file or of a disk extent.

    ``chunks`` is an insertion-ordered dict used as an ordered set, so a
    chunk leaves the run in O(1) wherever it stands (the interleaved
    buffer frees bucket fragments in any order) and the survivors keep
    write order.  Each chunk has ``keys`` and ``n_blocks``.

    :meth:`slice_range` remembers its last result: a Grace-Hash Step II
    reads the same whole R bucket, on disk or on tape, on every
    iteration, and the memo hands back the same
    :class:`DataChunk` without walking the chunks again.  Every content
    change drops the memo, so a read never sees stale content.
    """

    def __init__(self, name: str):
        self.name = name
        self.chunks: dict[typing.Any, None] = {}
        self.n_blocks = 0.0
        #: ``((offset_blocks, n_blocks), data)`` of the last slice, or None.
        self._memo: tuple[tuple[float, float], DataChunk] | None = None

    @property
    def n_tuples(self) -> int:
        """Total tuples stored in the run."""
        return sum(len(chunk.keys) for chunk in self.chunks)

    def peek_all(self) -> DataChunk:
        """All content without consuming it."""
        return DataChunk.concat(list(self.chunks))

    def slice_range(self, offset_blocks: float, n_blocks: float) -> DataChunk:
        """Tuples in the block range [offset, offset + n_blocks).

        A repeat of the last slice, with no content change between,
        returns the same chunk object, whose keys are read-only.
        """
        span = (offset_blocks, n_blocks)
        memo = self._memo
        if memo is not None and memo[0] == span:
            return memo[1]
        data = slice_chunks(self.chunks, self.n_blocks, offset_blocks, n_blocks)
        data.keys.flags.writeable = False  # every repeat shares these keys
        self._memo = (span, data)
        return data

    def _add(self, chunk: typing.Any) -> None:
        """Store ``chunk`` after every chunk already in the run."""
        if chunk in self.chunks:
            raise ValueError(f"chunk already stored in {self.name!r}")
        self._memo = None
        self.chunks[chunk] = None
        self.n_blocks += chunk.n_blocks

    def _remove(self, chunk: typing.Any) -> None:
        """Take ``chunk`` out of the run."""
        try:
            del self.chunks[chunk]
        except KeyError:
            raise ValueError(f"chunk not stored in {self.name!r}") from None
        self._memo = None
        self.n_blocks -= chunk.n_blocks
