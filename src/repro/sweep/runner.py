"""Sweep execution: cache lookup, process fan-out, ordered collection.

:class:`SweepRunner` takes a list of :class:`~repro.sweep.tasks.SweepTask`
and returns their results in input order.  Each task is fingerprinted and
looked up in the cache first; only misses are executed.  With ``jobs=1``
misses run inline, in input order, in this process — exactly the
original sequential behaviour.  With ``jobs>1`` misses fan out across a
:class:`~concurrent.futures.ProcessPoolExecutor`; results are collected
as they complete but slotted back into input order, so the returned list
(and every artifact derived from it) is independent of worker scheduling.

The pooled path is hardened against worker failure: a dead worker (OOM
kill, segfault, ``os._exit``) breaks the whole pool, so the runner
rebuilds it and re-dispatches the lost tasks up to ``max_redispatch``
times, then degrades the stragglers to inline execution — a sweep always
completes with a full, in-order result list.  ``task_timeout_s`` bounds
how long the runner waits without *any* pending task completing before
declaring the pool wedged and reclaiming its work the same way.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import time
import typing

from repro.sweep.cache import SweepCache
from repro.sweep.fingerprint import CODE_VERSION, task_fingerprint
from repro.sweep.tasks import SweepTask, execute_task

#: Progress callback signature: (completed, total, note).
ProgressFn = typing.Callable[[int, int, str], None]


def _timed_execute(kind: str, payload: dict) -> dict:
    """Worker-side wrapper measuring one task's pure execution time.

    The measured seconds travel back beside the result (never inside it),
    so cached result dicts are unaffected and the runner can split a
    pooled task's wall time into queue wait and run time.
    """
    started = time.perf_counter()
    result = execute_task(kind, payload)
    return {"result": result, "run_s": time.perf_counter() - started}


def _timing(task: SweepTask, source: str, queue_s: float, run_s: float) -> dict:
    """One :attr:`SweepRunner.timings` record."""
    return {
        "kind": task.kind,
        "symbol": task.payload.get("symbol") if task.kind == "join" else None,
        "source": source,
        "queue_s": queue_s,
        "run_s": run_s,
    }


def _empty_group() -> dict:
    return {"tasks": 0, "run_s": 0.0}


class SweepRunner:
    """Runs sweep tasks through the cache and an optional process pool."""

    def __init__(
        self,
        jobs: int = 1,
        cache: SweepCache | None = None,
        progress: ProgressFn | None = None,
        salt: str = CODE_VERSION,
        task_timeout_s: float | None = None,
        max_redispatch: int = 1,
    ):
        self.jobs = max(1, int(jobs))
        self.cache = cache
        self.progress = progress
        self.salt = salt
        if task_timeout_s is not None and task_timeout_s <= 0:
            raise ValueError(f"task_timeout_s must be positive, got {task_timeout_s}")
        self.task_timeout_s = task_timeout_s
        self.max_redispatch = max(0, int(max_redispatch))
        #: Tasks re-submitted to a fresh pool after a worker failure.
        self.redispatched = 0
        #: True once any task had to fall back to inline execution.
        self.degraded = False
        #: Wall-clock record per executed task (accumulated over every
        #: ``run()`` of this runner): kind, the join's method ``symbol``
        #: (None for other kinds), source ("inline"/"pool"), ``queue_s``
        #: waiting for a worker and ``run_s`` executing.
        self.timings: list[dict] = []
        #: Worker-seconds the pools spent not running a task (see profile()).
        self._idle_s = 0.0
        self._cache_load_s = 0.0
        self._cache_store_s = 0.0
        self._cache_hits = 0
        self._wall_s = 0.0

    def run(self, tasks: typing.Sequence[SweepTask]) -> list[dict]:
        """Execute ``tasks``, returning one result dict per task, in order."""
        run_started = time.perf_counter()
        try:
            return self._run(tasks)
        finally:
            self._wall_s += time.perf_counter() - run_started

    def _run(self, tasks: typing.Sequence[SweepTask]) -> list[dict]:
        total = len(tasks)
        results: list[dict | None] = [None] * total
        fingerprints = [
            task_fingerprint(task.kind, task.payload, salt=self.salt)
            for task in tasks
        ]

        pending: list[int] = []
        for index, fingerprint in enumerate(fingerprints):
            lookup_started = time.perf_counter()
            cached = self.cache.load(fingerprint) if self.cache else None
            self._cache_load_s += time.perf_counter() - lookup_started
            if cached is not None:
                self._cache_hits += 1
                results[index] = cached
            else:
                pending.append(index)
        done = total - len(pending)
        self._report(done, total, f"{done} cached")

        # Duplicate fingerprints within one submission execute once; the
        # extra occurrences share the first occurrence's result.
        leaders: dict[str, int] = {}
        followers: dict[int, int] = {}
        unique: list[int] = []
        for index in pending:
            leader = leaders.setdefault(fingerprints[index], index)
            if leader is index:
                unique.append(index)
            else:
                followers[index] = leader

        if self.jobs == 1 or len(unique) <= 1:
            done = self._run_inline(unique, tasks, fingerprints, results, done, total)
        else:
            done = self._run_pool(unique, tasks, fingerprints, results, done, total)

        for index, leader in followers.items():
            results[index] = results[leader]
        return typing.cast("list[dict]", results)

    # -- execution paths -------------------------------------------------------

    def _run_inline(
        self, indices, tasks, fingerprints, results, done: int, total: int
    ) -> int:
        for index in indices:
            task = tasks[index]
            task_started = time.perf_counter()
            result = execute_task(task.kind, task.payload)
            self.timings.append(
                _timing(task, "inline", 0.0, time.perf_counter() - task_started)
            )
            done = self._finish(index, task, fingerprints[index], result, done, total, results)
        return done

    def _run_pool(
        self, unique, tasks, fingerprints, results, done: int, total: int
    ) -> int:
        outstanding = list(unique)
        rounds = 0
        while outstanding:
            # Never more workers than tasks left to run.
            workers = min(self.jobs, len(outstanding))
            outstanding, done = self._drain_pool(
                outstanding, workers, tasks, fingerprints, results, done, total
            )
            if not outstanding:
                break
            if rounds >= self.max_redispatch:
                # The pool keeps losing workers (or stalling): finish the
                # stragglers inline, where nothing can kill them short of
                # killing the sweep itself.
                self.degraded = True
                self._report(
                    done, total,
                    f"degrading {len(outstanding)} task(s) to inline execution",
                )
                done = self._run_inline(
                    outstanding, tasks, fingerprints, results, done, total
                )
                break
            rounds += 1
            self.redispatched += len(outstanding)
            self._report(
                done, total,
                f"re-dispatching {len(outstanding)} task(s) after worker failure",
            )
        return done

    def _drain_pool(
        self, indices, workers: int, tasks, fingerprints, results, done: int, total: int
    ) -> tuple[list[int], int]:
        """Run ``indices`` through one pool; returns (lost indices, done).

        Adds the pool's idle worker-seconds to the profile: ``workers``
        times the pool's wall time, less the run time of the tasks it
        completed (a lost task's time counts as idle).
        """
        survivors: list[int] = []
        pool_started = time.perf_counter()
        ran_s = 0.0
        pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
        futures: dict[concurrent.futures.Future, int] = {}
        submitted: dict[concurrent.futures.Future, float] = {}
        try:
            for index in indices:
                future = pool.submit(
                    _timed_execute, tasks[index].kind, tasks[index].payload
                )
                futures[future] = index
                submitted[future] = time.perf_counter()
            while futures:
                finished, _ = concurrent.futures.wait(
                    futures,
                    timeout=self.task_timeout_s,
                    return_when=concurrent.futures.FIRST_COMPLETED,
                )
                if not finished:
                    # Nothing completed within the per-task budget: the
                    # pool is wedged.  Reclaim everything still pending.
                    survivors.extend(futures.values())
                    futures.clear()
                    break
                broken = False
                for future in finished:
                    index = futures.pop(future)
                    try:
                        envelope = future.result()
                    except concurrent.futures.process.BrokenProcessPool:
                        # A worker died; the executor marks every
                        # outstanding future broken along with it.
                        survivors.append(index)
                        broken = True
                        continue
                    total_s = time.perf_counter() - submitted[future]
                    run_s = envelope["run_s"]
                    ran_s += run_s
                    self.timings.append(
                        _timing(tasks[index], "pool", max(0.0, total_s - run_s), run_s)
                    )
                    done = self._finish(
                        index, tasks[index], fingerprints[index],
                        envelope["result"], done, total, results,
                    )
                if broken:
                    survivors.extend(futures.values())
                    futures.clear()
        finally:
            pool.shutdown(wait=False, cancel_futures=True)
            pool_s = time.perf_counter() - pool_started
            self._idle_s += max(0.0, workers * pool_s - ran_s)
        return survivors, done

    # -- bookkeeping -----------------------------------------------------------

    def _finish(
        self, index: int, task: SweepTask, fingerprint: str, result: dict,
        done: int, total: int, results,
    ) -> int:
        results[index] = result
        self._store(fingerprint, task, result)
        done += 1
        self._report(done, total, task.kind)
        return done

    def _store(self, fingerprint: str, task: SweepTask, result: dict) -> None:
        if self.cache is not None:
            store_started = time.perf_counter()
            self.cache.store(fingerprint, task.kind, task.payload, result)
            self._cache_store_s += time.perf_counter() - store_started

    def profile(self) -> dict:
        """Aggregate wall-clock profile of every ``run()`` so far.

        Totals plus a per-kind and a per-method breakdown (``by_method``
        covers join tasks only); the raw per-task records stay on
        :attr:`timings`.  ``idle_s`` is the worker-seconds the process
        pools held but spent on no task: per pool, its workers times its
        wall time less the run time of the tasks it completed (start-up,
        the tail where fewer tasks than workers remain, lost work); 0 for
        inline runs.  All numbers are host wall-clock seconds — simulated
        time never appears here.
        """
        by_kind: dict[str, dict] = {}
        by_method: dict[str, dict] = {}
        for timing in self.timings:
            groups = [by_kind.setdefault(timing["kind"], _empty_group())]
            if timing["symbol"] is not None:
                groups.append(by_method.setdefault(timing["symbol"], _empty_group()))
            for entry in groups:
                entry["tasks"] += 1
                entry["run_s"] += timing["run_s"]
        return {
            "wall_s": self._wall_s,
            "executed": len(self.timings),
            "cached": self._cache_hits,
            "run_s": sum(t["run_s"] for t in self.timings),
            "idle_s": self._idle_s,
            "cache_load_s": self._cache_load_s,
            "cache_store_s": self._cache_store_s,
            "by_kind": by_kind,
            "by_method": by_method,
        }

    def _report(self, done: int, total: int, note: str) -> None:
        if self.progress is None:
            return
        try:
            self.progress(done, total, note)
        except Exception:
            # A broken progress callback must never abort a sweep that is
            # otherwise computing fine; drop it and carry on silently.
            self.progress = None


@dataclasses.dataclass(frozen=True)
class Sweep:
    """One artifact as sweep work: its tasks, the function that builds the
    artifact from their results (in task order), and optionally a step
    that writes the artifact's device traces to a directory afterwards.

    Artifacts built this way can share one :meth:`SweepRunner.run` call:
    concatenate their tasks and hand each ``assemble`` its slice.
    """

    tasks: list[SweepTask]
    assemble: typing.Callable[[list[dict]], typing.Any]
    trace: typing.Callable[[str], None] | None = None

    def run(self, runner: SweepRunner | None = None, trace_out: str | None = None):
        """Assemble the artifact from ``runner`` (default: sequential, no
        cache); with ``trace_out``, then write its traces there."""
        artifact = self.assemble((runner or SweepRunner()).run(self.tasks))
        if trace_out and self.trace is not None:
            self.trace(trace_out)
        return artifact
