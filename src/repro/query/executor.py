"""Query execution over the simulated tape hierarchy.

A query is one simulation: its passes run in turn on one simulator and one
:class:`~repro.storage.hierarchy.StorageSystem`, each plan input on its own
cartridge.  A cartridge placed in an empty drive costs nothing (the paper's
tapes are pre-loaded); one that must displace another goes through the
:class:`~repro.storage.library.TapeLibrary` robot, and that exchange is a
pass of its own.  Each of ``QueryResult.passes`` is a clock advance;
``simulated_s`` is the end.

* A *scan pipeline* (filters/aggregate over one relation) reads the tape
  once; filters and aggregates are applied to the stream for free, as the
  paper assumes for high-selectivity consumers of a join.
* The *filters feeding a join input* are materialized first, all in one
  pass: after each chunk read from the input tape, the chunk's survivors
  are appended to a scratch tape on the other drive, so the pass is
  charged every read plus every write.  Tapes have no indices, so the
  read cost is unavoidable; the pay-off is that the join then runs on the
  smaller relation — often switching to a cheaper method via the planner.
* The *join* is planned with :func:`repro.core.planner.plan_join`, run on
  the query's storage (a filtered input is read from the scratch tape
  where its filter left it) and verified against the reference join.
* ``Aggregate(Join, "count")`` is the join's verified output cardinality.
  Other aggregates over a join would require materializing the join
  output, which the paper's model deliberately pipelines away; they are
  rejected with :class:`UnsupportedPlanError`.
"""

from __future__ import annotations

import dataclasses
import typing

import numpy as np

from repro.core.environment import JoinEnvironment, storage_config
from repro.core.planner import plan_join
from repro.core.registry import method_by_symbol
from repro.core.spec import JoinSpec, scan_bounds
from repro.query.plan import Aggregate, Filter, Join, PlanNode, TapeScan
from repro.query.predicates import Predicate
from repro.relational.join_core import JoinResult
from repro.relational.relation import Relation
from repro.simulator.engine import Simulator
from repro.storage.block import DataChunk
from repro.storage.disk import DiskParameters
from repro.storage.hierarchy import StorageSystem
from repro.storage.library import TapeLibrary
from repro.storage.tape import TapeDrive, TapeDriveParameters, TapeFile, TapeVolume

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


def _join_spec(r: Relation, s: Relation, machine: Machine) -> JoinSpec:
    """The join of ``r`` (the smaller input) and ``s`` on ``machine``."""
    return JoinSpec(
        r,
        s,
        memory_blocks=min(machine.memory_blocks, r.n_blocks * 0.95),
        disk_blocks=machine.disk_blocks,
        n_disks=machine.n_disks,
        disk_params=machine.disk_params,
        tape_params_r=machine.tape_params,
        tape_params_s=machine.tape_params,
    )


class _Tapes:
    """One query's simulation: its clock, storage, cartridges and passes."""

    def __init__(self, machine: Machine, relations: list[Relation]):
        self.machine, self.sim = machine, Simulator()
        ordered = sorted(relations, key=lambda relation: relation.n_blocks)
        # Filtering keeps tuple size and block geometry, so the storage
        # built for the unfiltered inputs is the one their join gets.
        spec = _join_spec(ordered[0], ordered[-1], machine)
        self.storage = StorageSystem(self.sim, storage_config(spec))
        self.library = TapeLibrary(self.sim)
        #: Room after each cartridge's data: a join spec's default scratch
        #: allowance T_S for the largest S the plan can join.
        self.scratch_blocks = spec.effective_scratch_s()
        self.passes: list[tuple[str, float]] = []
        # A tape file holds its volume weakly; the query holds them all.
        self._volumes: dict[str, TapeVolume] = {}

    def _cartridge(self, relation: Relation, name: str | None = None) -> TapeVolume:
        """A new shelved cartridge with room for ``relation`` and a join's
        scratch, named after ``relation`` unless ``name`` is given and
        numbered if the plan reads one relation twice."""
        name = name or relation.name
        if name in self._volumes:
            name = f"{name}#{len(self._volumes)}"
        volume = TapeVolume(name, relation.n_blocks + self.scratch_blocks)
        self._volumes[name] = self.library.add_volume(volume)
        return volume

    def _mount(self, tape_file: TapeFile, keep: TapeFile | None = None) -> TapeDrive:
        """The drive holding ``tape_file``; if none does, its volume goes
        on the drive that does not hold ``keep``'s: at once if that drive
        is empty, else by a robot exchange, charged as its own pass."""
        drives = [self.storage.drive_r, self.storage.drive_s]
        for drive in drives:
            if drive.volume is tape_file.volume:
                return drive
        keep_on_r = keep is not None and drives[0].volume is keep.volume
        drive = drives[1] if keep_on_r else drives[0]
        name = tape_file.volume.name
        if drive.volume is None:
            drive.load(self.library.shelf.pop(name))
            return drive
        start = self.sim.now
        self.sim.run(self.sim.process(self.library.mount(drive, name)))
        self.passes.append((f"mount {name} on {drive.name}", self.sim.now - start))
        return drive

    def scan(self, relation: Relation) -> None:
        """One read of ``relation``'s whole tape."""
        data = self._cartridge(relation).record("data", relation.as_chunk())
        start = self.sim.now
        self.sim.run(self.sim.process(self._mount(data).read_file(data)))
        self.passes.append((f"scan {relation.name}", self.sim.now - start))

    def join_input(self, relation: Relation, predicates: list[Predicate]):
        """A join input and its tape file: the relation's own, or the
        scratch file of its filter pass; ``None`` if no tuple survives."""
        data = self._cartridge(relation).record("data", relation.as_chunk())
        if not predicates:
            return relation, data
        kept = self._cartridge(relation, f"{relation.name}'").create_file("filtered")
        source, sink = self._mount(data), self._mount(kept, keep=data)

        def run():
            for offset, n_blocks in scan_bounds(0.0, data.n_blocks, FILTER_CHUNK_BLOCKS):
                piece = yield from source.read_range(data, offset, n_blocks)
                keys = piece.keys
                for predicate in predicates:
                    keys = predicate.apply(keys)
                if len(keys):
                    chunk = DataChunk.from_keys(keys, relation.tuples_per_block)
                    yield from sink.append(kept, chunk)

        start = self.sim.now
        self.sim.run(self.sim.process(run()))
        label = f"filter {relation.name} ({kept.n_tuples}/{relation.n_tuples} kept)"
        self.passes.append((label, self.sim.now - start))
        if kept.n_tuples == 0:
            return None
        keys = kept.peek_all().keys
        return Relation(f"{relation.name}'", relation.tuple_bytes, keys, relation.spec), kept

    def join(self, streams: list) -> tuple[JoinResult, str | None]:
        """Plan the join of two inputs and run it where they lie on tape."""
        inputs = [self.join_input(*stream) for stream in streams]
        if None in inputs:
            return JoinResult.zero(), None
        # Equi-joins are symmetric; R is the smaller input.
        (r, file_r), (s, file_s) = sorted(inputs, key=lambda side: side[0].n_blocks)
        spec = _join_spec(r, s, self.machine)
        method = method_by_symbol(plan_join(spec).chosen)
        self._mount(file_r, keep=file_s)
        self._mount(file_s, keep=file_r)
        stats = method.simulate(JoinEnvironment(spec, self.storage, file_r, file_s))
        stats.verify(spec)
        self.passes.append((f"join via {stats.symbol}", stats.response_s))
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
    join = plan.child if isinstance(plan, Aggregate) else plan
    if isinstance(join, Join):
        if isinstance(plan, Aggregate) and plan.kind != "count":
            raise UnsupportedPlanError(
                f"aggregate {plan.kind!r} over a join would materialize the "
                "join output; the execution model pipelines it (only 'count' "
                "is available)"
            )
        streams = [_resolve_stream(join.left), _resolve_stream(join.right)]
        tapes = _Tapes(machine, [relation for relation, _ in streams])
        output, method = tapes.join(streams)
        value = output.n_pairs if isinstance(plan, Aggregate) else output
    elif isinstance(plan, Aggregate):
        relation, predicates = _resolve_stream(plan.child)
        tapes = _Tapes(machine, [relation])
        tapes.scan(relation)
        keys = relation.keys
        for predicate in predicates:
            keys = predicate.apply(keys)
        value, method = _stream_aggregate(plan.kind, keys), None
    else:
        raise UnsupportedPlanError(
            "a query must be an Aggregate or a Join at the root, got "
            f"{type(plan).__name__}"
        )
    return QueryResult(value, tapes.sim.now, method, tuple(tapes.passes))
