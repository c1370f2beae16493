"""Block units and data chunks.

The paper's cost model counts *blocks transferred*.  A :class:`BlockSpec`
fixes the block size and provides unit conversions; a :class:`DataChunk` is
the payload actually moved by device operations — a numpy array of join keys
plus the number of blocks it occupies on media.

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
        the disk array's stored-chunk handles.
        """
        if not chunks:
            return cls.empty()
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


def slice_chunks(
    chunks: typing.Iterable[typing.Any],
    total_blocks: float,
    offset_blocks: float,
    n_blocks: float,
) -> DataChunk:
    """Tuples stored in block range [offset, offset + n_blocks) of ``chunks``.

    Keys are mapped proportionally within each chunk, which is exact for
    densely packed relation data.  Shared by disk extents (stored-chunk
    handles) and tape files (data chunks): it reads only each chunk's
    ``keys`` and ``n_blocks``.
    """
    if offset_blocks < 0 or n_blocks < 0:
        raise ValueError("offset and length must be non-negative")
    end = offset_blocks + n_blocks
    if end > total_blocks + 1e-9:
        raise ValueError(f"range [{offset_blocks}, {end}) beyond {total_blocks} blocks")
    # Accumulate raw key slices rather than intermediate DataChunk pieces:
    # range reads dominate the simulation hot path, and the per-piece
    # object churn is measurable at experiment scale.
    pieces = []
    blocks = 0.0
    base = 0.0
    for chunk in chunks:
        lo = max(offset_blocks, base)
        hi = min(end, base + chunk.n_blocks)
        if hi > lo and chunk.n_blocks > 0:
            density = len(chunk.keys) / chunk.n_blocks
            first = tuple_index((lo - base) * density)
            last = tuple_index((hi - base) * density)
            pieces.append(chunk.keys[first:last])
            blocks += hi - lo
        base += chunk.n_blocks
        if base >= end:
            break
    if not pieces:
        return DataChunk.empty()
    return DataChunk._of(np.concatenate(pieces), blocks)
