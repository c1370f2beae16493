"""Instrumentation the benchmark attaches from outside the program.

Nothing here edits ``src/``.  A traced pass swaps public functions and
methods for thin wrappers while the pass runs and restores them after:

* :class:`Tracer` records spans (name, start, end, parent, workload id)
  around the calls into each layer's public entry points, and counts
  calls at the device and kernel boundaries.  Spans stay in memory until
  :meth:`Tracer.write` dumps them at the end of the run.
* :func:`profile_self_time` runs a pass under ``cProfile`` and sums self
  time per ``repro`` subpackage.  The simulator, storage and buffering
  layers interleave as generators inside one ``run`` call, so wrapping
  their functions cannot separate their time; the profiler can.

A module function is swapped in every loaded ``repro`` module that holds
it by name, because several modules import ``hash_join`` and
``plan_join`` directly.
"""

from __future__ import annotations

import collections
import contextlib
import cProfile
import functools
import json
import pathlib
import pstats
import sys
import time
import typing

#: Span targets: (module, attribute path, span name).  A span named with
#: a trailing ``.`` gets the method symbol of the join appended.
SPAN_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.sweep.runner", "SweepRunner.run", "sweep.run"),
    ("repro.sweep.tasks", "execute_task", "sweep.execute_task"),
    ("repro.sweep.fingerprint", "task_fingerprint", "sweep.fingerprint"),
    ("repro.sweep.cache", "SweepCache.load", "sweep.cache_load"),
    ("repro.sweep.cache", "SweepCache.store", "sweep.cache_store"),
    ("repro.core.base", "TertiaryJoinMethod.run", "core.run."),
    ("repro.core.planner", "plan_join", "planner.plan"),
    ("repro.relational.join_core", "hash_join", "relational.hash_join"),
    ("repro.relational.hashing", "partition_keys", "relational.partition"),
    ("repro.service.scheduler", "JoinService.admit", "service.admit"),
    ("repro.service.scheduler", "JoinService.run", "service.run"),
    ("repro.hsm.cache", "PartitionCache.lookup", "hsm.lookup"),
    ("repro.hsm.cache", "PartitionCache.admit", "hsm.admit"),
)

#: Call counters on hot generator methods (no spans: they interleave).
COUNT_TARGETS: tuple[tuple[str, str, str], ...] = (
    ("repro.simulator.engine", "Simulator._schedule", "simulator.events"),
    ("repro.simulator.process", "Process._resume", "simulator.resumes"),
    ("repro.storage.tape", "TapeDrive.read_range", "storage.tape_read_range_calls"),
    ("repro.storage.bus", "Bus.transfer", "storage.bus_transfer_calls"),
    ("repro.storage.disk_array", "DiskArray.write", "storage.disk_write_calls"),
    ("repro.storage.disk_array", "DiskArray.write_burst", "storage.disk_write_calls"),
) + tuple(
    ("repro.storage.disk_array", f"DiskArray.{name}", "storage.disk_read_calls")
    for name in (
        "read_chunks", "read_coalesced", "read_all", "read_next", "read_chunk",
        "read_range",
    )
)


class Span(typing.NamedTuple):
    name: str
    start: float
    end: float
    parent: int  # index into the span list, -1 for a root span
    workload: str


def _resolve(module_name: str, path: str):
    owner = sys.modules[module_name]
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part)
    return owner, parts[-1]


class Patcher:
    """Swaps attributes and restores them, in reverse order."""

    def __init__(self):
        self._undo: list[tuple[object, str, object]] = []

    def swap(self, owner, attr: str, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def swap_function(self, original, replacement) -> None:
        """Replace ``original`` in every loaded ``repro`` module holding it."""
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "repro" or name.startswith("repro.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    self.swap(module, attr, replacement)

    def restore(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)


class Tracer:
    """In-memory span recorder and call counter for one workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans: list[Span] = []
        self.counts: collections.Counter[str] = collections.Counter()
        #: Every ``SweepRunner`` seen, so its own ``profile()`` can be read.
        self.runners: list = []
        self._stack: list[int] = []

    def _span_wrapper(self, original, name: str, is_join_run: bool):
        spans, stack, workload = self.spans, self._stack, self.workload
        runners = self.runners

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            label = name + args[0].symbol if is_join_run else name
            if name == "sweep.run":
                runners.append(args[0])
            index = len(spans)
            spans.append(None)  # reserve the slot so children index after it
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = time.perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                stack.pop()
                spans[index] = Span(label, start, time.perf_counter(), parent, workload)

        return wrapper

    def _count_wrapper(self, original, name: str):
        counts = self.counts

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return original(*args, **kwargs)

        return wrapper

    @contextlib.contextmanager
    def spans_attached(self):
        """Record spans around every span target inside the ``with`` block."""
        patcher = Patcher()
        try:
            for module_name, path, name in SPAN_TARGETS:
                owner, attr = _resolve(module_name, path)
                original = owner.__dict__[attr]
                wrapper = self._span_wrapper(original, name, name.endswith("."))
                if isinstance(owner, type):
                    patcher.swap(owner, attr, wrapper)
                else:
                    patcher.swap_function(original, wrapper)
            yield self
        finally:
            patcher.restore()

    @contextlib.contextmanager
    def counters_attached(self):
        """Count calls to every count target inside the ``with`` block.

        Kept apart from the spans: a Python wrapper on the event queue
        roughly doubles the kernel's cost, which would swamp span times.
        """
        patcher = Patcher()
        try:
            for module_name, path, name in COUNT_TARGETS:
                owner, attr = _resolve(module_name, path)
                patcher.swap(owner, attr, self._count_wrapper(owner.__dict__[attr], name))
            yield self
        finally:
            patcher.restore()

    def totals(self) -> dict[str, tuple[int, float]]:
        """(calls, summed seconds) per span name."""
        out: dict[str, list] = {}
        for span in self.spans:
            entry = out.setdefault(span.name, [0, 0.0])
            entry[0] += 1
            entry[1] += span.end - span.start
        return {name: (calls, seconds) for name, (calls, seconds) in out.items()}

    def write(self, path: pathlib.Path) -> None:
        """Dump the spans as JSON lines (called once, after the passes)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span._asdict()) + "\n")


def layer_of(filename: str, function: str = "") -> str:
    """The layer a profiled function belongs to, from its source path.

    C functions have no path (``~``); numpy's are told by their name.
    """
    path = filename.replace("\\", "/")
    marker = "/repro/"
    if marker in path and "/src/" in path:
        rest = path.rsplit(marker, 1)[1]
        return rest.split("/", 1)[0] if "/" in rest else "repro"
    if "/numpy/" in path or (filename == "~" and "numpy" in function):
        return "numpy"
    if filename == "~" or filename.startswith("<"):
        return "builtins"
    return "other"


def profile_self_time(run: typing.Callable[[], object]) -> dict[str, float]:
    """Run ``run()`` under cProfile; return self seconds per layer."""
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        run()
    finally:
        profiler.disable()
    by_layer: collections.Counter[str] = collections.Counter()
    for (filename, _line, function), row in pstats.Stats(profiler).stats.items():
        by_layer[layer_of(filename, function)] += row[2]  # tottime: self seconds
    return dict(by_layer)
