"""Logical query plans over tape-resident relations."""

from __future__ import annotations

import dataclasses

from repro.query.predicates import Predicate
from repro.relational.relation import Relation

#: Aggregate kinds the executor can compute streaming.
AGGREGATE_KINDS = ("count", "count_distinct", "sum", "min", "max")


class PlanNode:
    """Base class for logical plan nodes."""


@dataclasses.dataclass(frozen=True)
class TapeScan(PlanNode):
    """Leaf: read one tape-resident relation end to end."""

    relation: Relation


@dataclasses.dataclass(frozen=True)
class Filter(PlanNode):
    """Keep the tuples whose join key satisfies ``predicate``.

    Tapes have no indices, so a filter always reads its entire input; what
    it saves is everything *downstream* — a filter under a join shrinks
    the relation the join must hash and buffer.
    """

    child: PlanNode
    predicate: Predicate


@dataclasses.dataclass(frozen=True)
class Join(PlanNode):
    """Ad hoc equi-join of two tape-resident inputs on the join key.

    The executor picks the tertiary join method with
    :func:`repro.core.planner.plan_join`, exactly as a standalone join
    would.
    """

    left: PlanNode
    right: PlanNode


@dataclasses.dataclass(frozen=True)
class Aggregate(PlanNode):
    """Reduce the child's stream to a single value.

    Over a relation stream the aggregate applies to the join keys; over a
    join only ``count``, the join's cardinality, is available.
    """

    child: PlanNode
    kind: str = "count"

    def __post_init__(self):
        if self.kind not in AGGREGATE_KINDS:
            raise ValueError(
                f"unknown aggregate {self.kind!r}; known: {', '.join(AGGREGATE_KINDS)}"
            )
