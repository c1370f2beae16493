"""Relation schemas.

The paper's joins are ad hoc equi-joins on a single join attribute, with
cost driven purely by tuple volume.  A schema therefore records the tuple
width (which fixes how many tuples pack into a block) and names the join
attribute; payload bytes are simulated by the width, not materialized.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class Schema:
    """Shape of a relation's tuples."""

    name: str
    tuple_bytes: int
    key_attribute: str = "key"

    def __post_init__(self):
        if self.tuple_bytes <= 0:
            raise ValueError(f"tuple_bytes must be positive, got {self.tuple_bytes}")
        if not self.name:
            raise ValueError("schema needs a name")
