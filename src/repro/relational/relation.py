"""Relations: join-key arrays packed into fixed-size blocks."""

from __future__ import annotations

import numpy as np

from repro.relational.schema import Schema
from repro.storage.block import BlockSpec, DataChunk


class Relation:
    """A relation materialized as a numpy array of join keys.

    Only the join attribute is materialized; the rest of each tuple is
    represented by the schema's tuple width, which determines how many
    tuples occupy one block and therefore the relation's size in blocks —
    the quantity the paper's cost model is expressed in.

    ``keys`` is a read-only view: device reads hand out views of it, and
    one relation is shared by many joins, so nothing may write into it.
    Build the key array completely before making the relation.
    """

    def __init__(self, name: str, schema: Schema, keys: np.ndarray, spec: BlockSpec):
        self.name = name
        self.schema = schema
        self.keys = np.ascontiguousarray(keys, dtype=np.int64).view()
        self.keys.flags.writeable = False
        self.spec = spec
        self.tuples_per_block = spec.tuples_per_block(schema.tuple_bytes)
        if len(self.keys) == 0:
            raise ValueError(f"relation {name!r} has no tuples")

    @property
    def n_tuples(self) -> int:
        """Cardinality of the relation."""
        return len(self.keys)

    @property
    def n_blocks(self) -> float:
        """Size in blocks (the model's |R| or |S|)."""
        return self.n_tuples / self.tuples_per_block

    @property
    def size_mb(self) -> float:
        """Size in megabytes."""
        return self.spec.mb_from_blocks(self.n_blocks)

    def as_chunk(self) -> DataChunk:
        """The whole relation as one densely packed chunk."""
        return DataChunk.from_keys(self.keys, self.tuples_per_block)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"<Relation {self.name!r}: {self.n_tuples} tuples, "
            f"{self.n_blocks:.1f} blocks, {self.size_mb:.1f} MB>"
        )
