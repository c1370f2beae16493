"""Query execution over the simulated tape hierarchy.

Execution semantics, chosen to stay honest about what tapes can do:

* A *scan pipeline* (filters/aggregate over one relation) reads the tape
  once; filters and aggregates are applied to the stream for free, as the
  paper assumes for high-selectivity consumers of a join.
* The *filters feeding a join input* are materialized first, all in one
  pass: the input tape is read end to end in chunks, and after each read
  the chunk's survivors of every predicate are appended to a scratch
  tape on the other drive.  Reads and writes alternate, so the pass is
  charged the sum of both.  Tapes have no indices, so the read cost is
  unavoidable; the pay-off is that the join then runs on the smaller
  relation — often switching to a cheaper method via the planner.
* The *join* itself is planned with :func:`repro.core.planner.plan_join`,
  executed by the chosen tertiary join method through
  :func:`repro.api.run_join` and verified against the reference join.
* ``Aggregate(Join, "count")`` is the join's verified output cardinality.
  Other aggregates over a join would require materializing the join
  output, which the paper's model deliberately pipelines away; they are
  rejected with :class:`UnsupportedPlanError`.

Every pass runs on its own :class:`~repro.storage.hierarchy.StorageSystem`:
the input is read on ``drive_r`` and a filter's scratch volume sits on
``drive_s``.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from repro import api
from repro.core.spec import JoinSpec
from repro.query.plan import Aggregate, Filter, Join, PlanNode, TapeScan
from repro.query.predicates import Predicate
from repro.relational.join_core import JoinResult
from repro.relational.relation import Relation
from repro.simulator.engine import Simulator
from repro.storage.block import DataChunk
from repro.storage.disk import DiskParameters
from repro.storage.hierarchy import StorageConfig, StorageSystem
from repro.storage.tape import TapeDriveParameters, TapeVolume

#: Blocks a filter pass reads before it writes that chunk's survivors.
FILTER_CHUNK_BLOCKS = 16.0


class UnsupportedPlanError(ValueError):
    """The plan asks for something the tape execution model cannot do."""


@dataclasses.dataclass(frozen=True)
class Machine:
    """The workstation a query runs on (the model's M, D and devices)."""

    memory_blocks: float
    disk_blocks: float
    n_disks: int = 2
    disk_params: DiskParameters = dataclasses.field(default_factory=DiskParameters)
    tape_params: TapeDriveParameters = dataclasses.field(
        default_factory=TapeDriveParameters
    )


@dataclasses.dataclass(frozen=True)
class QueryResult:
    """Outcome of one query execution."""

    value: typing.Any
    simulated_s: float
    join_method: str | None
    passes: tuple[tuple[str, float], ...]


def _tape_pass(
    relation: Relation, machine: Machine, predicates: list[Predicate]
) -> tuple[float, np.ndarray]:
    """One pass over ``relation``'s tape: simulated seconds and the keys.

    Without predicates the pass is a scan, one read of the whole file.
    With predicates it is a filter pass: the file is read in chunks of
    :data:`FILTER_CHUNK_BLOCKS`, each chunk's survivors are appended to a
    scratch file, and the keys returned are that file's content.  Each
    write starts after its chunk's read, so the pass is charged every read
    plus every write.
    """
    sim = Simulator()
    storage = StorageSystem(
        sim,
        StorageConfig(
            spec=relation.spec,
            tape_params_r=machine.tape_params,
            tape_params_s=machine.tape_params,
        ),
    )
    source = TapeVolume("source", relation.n_blocks + 1.0)
    data = source.create_file("data")
    data._append(relation.as_chunk())
    storage.drive_r.load(source)
    scratch = TapeVolume("scratch", relation.n_blocks + 1.0)
    filtered = scratch.create_file("filtered")
    storage.drive_s.load(scratch)
    step = FILTER_CHUNK_BLOCKS if predicates else data.n_blocks

    def run():
        offset = 0.0
        while offset < data.n_blocks - 1e-9:
            n_blocks = min(step, data.n_blocks - offset)
            piece = yield from storage.drive_r.read_range(data, offset, n_blocks)
            offset += n_blocks
            keys = piece.keys
            for predicate in predicates:
                keys = predicate.apply(keys)
            if predicates and len(keys):
                chunk = DataChunk.from_keys(keys, relation.tuples_per_block)
                yield from storage.drive_s.append(filtered, chunk)

    sim.run(sim.process(run()))
    return sim.now, filtered.peek_all().keys if predicates else relation.keys


def _resolve_join_input(
    node: PlanNode, machine: Machine, passes: list
) -> Relation | None:
    """Reduce a join input to a relation, charging one pass for its filters.

    Returns ``None`` when the filters eliminated every tuple (the join is
    then empty without running).
    """
    relation, predicates = _resolve_stream(node)
    if not predicates:
        return relation
    seconds, keys = _tape_pass(relation, machine, predicates)
    passes.append(
        (f"filter {relation.name} ({len(keys)}/{relation.n_tuples} kept)", seconds)
    )
    if len(keys) == 0:
        return None
    return Relation(f"{relation.name}'", relation.schema, keys, relation.spec)


def _execute_join(node: Join, machine: Machine, passes: list):
    left = _resolve_join_input(node.left, machine, passes)
    right = _resolve_join_input(node.right, machine, passes)
    if left is None or right is None:
        return JoinResult.zero(), None
    if left.n_blocks > right.n_blocks:
        left, right = right, left  # equi-joins are symmetric; R is smaller
    spec = JoinSpec(
        left,
        right,
        memory_blocks=min(machine.memory_blocks, left.n_blocks * 0.95),
        disk_blocks=machine.disk_blocks,
        n_disks=machine.n_disks,
        disk_params=machine.disk_params,
        tape_params_r=machine.tape_params,
        tape_params_s=machine.tape_params,
    )
    stats = api.run_join(spec, verify=True)
    passes.append((f"join via {stats.symbol}", stats.response_s))
    return stats.output, stats.symbol


def _stream_aggregate(kind: str, keys: np.ndarray):
    if kind == "count":
        return int(len(keys))
    if kind == "count_distinct":
        return int(len(np.unique(keys)))
    if kind == "sum":
        return int(keys.sum())
    if kind == "min":
        return int(keys.min()) if len(keys) else None
    return int(keys.max()) if len(keys) else None


def _resolve_stream(node: PlanNode) -> tuple[Relation, list[Predicate]]:
    """Collapse a single-relation pipeline to (relation, predicates)."""
    predicates = []
    while isinstance(node, Filter):
        predicates.append(node.predicate)
        node = node.child
    if not isinstance(node, TapeScan):
        raise UnsupportedPlanError(
            f"expected a (filtered) tape scan, got {type(node).__name__}"
        )
    return node.relation, list(reversed(predicates))


def execute(plan: PlanNode, machine: Machine) -> QueryResult:
    """Run a logical plan on ``machine`` and return its verified result."""
    passes: list[tuple[str, float]] = []
    if isinstance(plan, Aggregate) and isinstance(plan.child, Join):
        if plan.kind != "count":
            raise UnsupportedPlanError(
                f"aggregate {plan.kind!r} over a join would materialize the "
                "join output; the execution model pipelines it (only 'count' "
                "is available)"
            )
        output, method = _execute_join(plan.child, machine, passes)
        value = output.n_pairs
    elif isinstance(plan, Join):
        value, method = _execute_join(plan, machine, passes)
    elif isinstance(plan, Aggregate):
        relation, predicates = _resolve_stream(plan.child)
        seconds, keys = _tape_pass(relation, machine, [])
        passes.append((f"scan {relation.name}", seconds))
        for predicate in predicates:
            keys = predicate.apply(keys)
        value, method = _stream_aggregate(plan.kind, keys), None
    else:
        raise UnsupportedPlanError(
            "a query must be an Aggregate or a Join at the root, got "
            f"{type(plan).__name__}"
        )
    total = sum(seconds for _label, seconds in passes)
    return QueryResult(value, total, method, tuple(passes))
