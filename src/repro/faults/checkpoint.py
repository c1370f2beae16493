"""Checkpoint/restart for Grace Hash joins.

Step II of every Grace Hash method is a sequence of independent bucket
joins.  Each bucket join runs as one *unit* through :func:`run_unit`:
when a :class:`~repro.faults.errors.MediaError` escapes the unit, the
unit alone is restarted — already-completed buckets are never redone, so
a mid-join media failure costs one bucket's work, not the whole join.

Every unit restarts the same way.  On the resident path, pieces of an
S bucket are popped (and their space released) only *after* their disk
read succeeds, and the popped pieces are probed even when the unit
fails, so a restarted unit resumes with exactly the unconsumed
remainder.  The skewed-bucket spill path consumes nothing before its
final discard and probes only after its last read, so a restarted spill
unit simply replays from the start.  Either way each tuple is joined
exactly once.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.faults.errors import MediaError, UnitRestartLimitError

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.core.environment import JoinEnvironment

#: Restarts allowed per unit before the join gives up.
MAX_UNIT_RESTARTS = 5


@dataclasses.dataclass
class JoinCheckpoint:
    """Per-join record of unit restart costs."""

    #: Unit restarts performed over the whole join.
    restarts: int = 0
    #: Simulated seconds of unit work discarded by restarts.
    lost_s: float = 0.0


def run_unit(
    env: "JoinEnvironment",
    key: str,
    factory: typing.Callable[[], typing.Generator],
) -> typing.Generator:
    """Run one restartable unit of join work.

    ``factory`` builds a fresh generator per attempt.  On a
    :class:`MediaError` the elapsed attempt time is recorded as lost and
    the unit re-runs, up to :data:`MAX_UNIT_RESTARTS` times.  Without a fault
    layer installed the unit body runs exactly once with no wrapping —
    the zero-rate code path stays byte-identical.
    """
    checkpoint, observer = env.checkpoint, env.observer
    if env.faults is None:
        if observer is None:
            return (yield from factory())
        started = env.sim.now
        result = yield from factory()
        observer.span(key, started, env.sim.now, "unit")
        return result
    attempt = 0
    while True:
        started = env.sim.now
        try:
            result = yield from factory()
        except MediaError as exc:
            attempt += 1
            checkpoint.restarts += 1
            checkpoint.lost_s += env.sim.now - started
            if observer is not None:
                observer.span(key, started, env.sim.now, "unit-retry")
                observer.count("unit_restarts")
            if attempt > MAX_UNIT_RESTARTS:
                raise UnitRestartLimitError(
                    f"unit {key!r} failed {attempt} times "
                    f"(limit {MAX_UNIT_RESTARTS}); giving up: {exc}"
                ) from exc
            continue
        if observer is not None:
            observer.span(key, started, env.sim.now, "unit")
        return result
