"""The stable facade: one import surface for the whole system.

Three PRs of subsystems (sweeps, faults, observability, and now the
multi-join service) accreted their own entry points.  This module is
the one place to import from::

    from repro import api

    spec = api.JoinSpec(r, s, memory_blocks=18, disk_blocks=500)
    plan = api.plan(spec)                       # rank the seven methods
    stats = api.run_join(spec, trace_out="traces/")

    results = api.sweep(tasks, jobs=4, cache_dir=".sweep-cache")

    report = api.run_service(requests, policy="affinity",
                             fault_rate=0.001, trace_out="traces/")

Keyword names are uniform across entry points: ``jobs=``,
``cache_dir=``, ``fault_rate=`` / ``fault_seed=``, ``trace_out=``.
Deep-module imports (``repro.sweep.runner`` etc.) remain supported for
internal use.
"""

from __future__ import annotations

import dataclasses
import os
import typing

from repro.core.planner import JoinPlan, plan_join
from repro.core.registry import method_by_symbol
from repro.core.spec import InfeasibleJoinError, JoinSpec, JoinStats, JoinVerificationError
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.hsm.cache import CacheConfig, CacheReport, PartitionCache
from repro.obs.export import write_chrome_trace, write_jsonl
from repro.obs.recorder import JoinObserver
from repro.service import JoinRequest, JoinService, ServiceConfig, WorkloadReport
from repro.service import scheduler
from repro.sweep.cache import DEFAULT_CACHE_DIR, SweepCache
from repro.sweep.runner import SweepRunner
from repro.sweep.tasks import (
    SweepTask,
    assumption_task,
    join_task,
    service_task,
)


def plan(spec: JoinSpec) -> JoinPlan:
    """Rank the seven methods for ``spec`` (Table 2 + cost model).

    Alias of :func:`repro.core.planner.plan_join` under the facade's
    shorter name; raises :class:`InfeasibleJoinError` when no method
    fits the given resources.
    """
    return plan_join(spec)


def run_join(
    spec: JoinSpec,
    *,
    method: str | None = None,
    verify: bool = False,
    fault_rate: float = 0.0,
    fault_seed: int = 0,
    retry_policy: RetryPolicy | None = None,
    trace_out: str | None = None,
) -> JoinStats:
    """Run one join end to end: plan (unless ``method`` picks), simulate.

    ``fault_rate`` > 0 installs a uniform seeded
    :class:`~repro.faults.plan.FaultPlan`; ``trace_out`` enables device
    tracing and writes ``trace-<symbol>.jsonl`` + ``.trace.json`` under
    that directory; ``verify`` checks the simulated output against the
    in-memory reference join and raises :class:`JoinVerificationError`
    on a divergence.
    """
    if method is None:
        method = plan_join(spec).chosen
    updates: dict = {}
    if fault_rate > 0:
        updates["fault_plan"] = FaultPlan.uniform(fault_rate, seed=fault_seed)
    if retry_policy is not None:
        updates["retry_policy"] = retry_policy
    if trace_out:
        updates["trace_devices"] = True
    if updates:
        spec = dataclasses.replace(spec, **updates)
    stats = method_by_symbol(method).run(spec)
    if verify:
        stats.verify(spec)
    if trace_out:
        trace(stats, trace_out)
    return stats


def sweep(
    tasks: typing.Sequence[SweepTask],
    *,
    jobs: int = 1,
    cache_dir: str | None = DEFAULT_CACHE_DIR,
    progress: typing.Callable[[int, int, str], None] | None = None,
) -> list:
    """Run sweep tasks (cached, optionally multi-process), in order.

    ``cache_dir=None`` disables the content-addressed result cache.
    Build tasks with :func:`join_task` (``trace=True`` adds the Figure 4
    buffer series), :func:`assumption_task` or :func:`service_task`.
    """
    cache = SweepCache(cache_dir) if cache_dir else None
    runner = SweepRunner(jobs=jobs, cache=cache, progress=progress)
    return runner.run(list(tasks))


#: Alias of :func:`sweep` for package-root use: ``repro.run_sweep(...)``.
#: The package root cannot re-export a name called ``sweep`` (it would
#: shadow the ``repro.sweep`` subpackage on the package object), so the
#: facade offers both spellings and the root re-exports this one.  See
#: docs/sweep.md ("Naming").
run_sweep = sweep


def trace(
    source: JoinStats | WorkloadReport | JoinObserver,
    trace_out: str,
    *,
    name: str | None = None,
    meta: dict | None = None,
) -> list[str]:
    """Export a run's observer as JSONL + Chrome trace under a directory.

    Accepts a :class:`JoinStats` or :class:`WorkloadReport` (their
    attached observer is used) or a bare observer.  Returns the written
    paths; validate them with ``python -m repro.obs.validate``.
    """
    observer = source if isinstance(source, JoinObserver) else source.observer
    if observer is None:
        raise ValueError(
            "no observer attached — run with tracing enabled "
            "(trace_out=/trace_devices) before exporting"
        )
    header = dict(meta or {})
    if name is None:
        if isinstance(source, JoinStats):
            name = f"trace-{source.symbol.lower().replace('/', '-')}"
            header.setdefault("symbol", source.symbol)
            header.setdefault("response_s", source.response_s)
            header.setdefault("step1_s", source.step1_s)
        elif isinstance(source, WorkloadReport):
            name = f"service-{source.policy}"
            header.setdefault("policy", source.policy)
            header.setdefault("estimator", source.estimator)
            header.setdefault("makespan_s", source.makespan_s)
            header.setdefault("jobs", len(source.outcomes))
        else:
            name = "trace"
    os.makedirs(trace_out, exist_ok=True)
    base = os.path.join(trace_out, name)
    paths = [f"{base}.jsonl", f"{base}.trace.json"]
    write_jsonl(observer, paths[0], header)
    write_chrome_trace(observer, paths[1], header)
    return paths


def run_service(
    requests: typing.Iterable[JoinRequest],
    *,
    trace_out: str | None = None,
    **options,
) -> WorkloadReport:
    """Run a workload through the service in one call.

    ``options`` are those of :func:`repro.service.scheduler.run_service`
    (``config=``, ``policy=``, ``fault_rate=`` / ``fault_seed=``,
    ``fault_plan=``, ``retry_policy=``); a fault plan makes the service
    profile its jobs by simulation.  With
    ``trace_out`` the run's observer is exported by :func:`trace` as
    ``service-<policy>.jsonl`` + ``.trace.json`` under that directory.
    """
    report = scheduler.run_service(requests, **options)
    if trace_out:
        trace(report, trace_out)
    return report


__all__ = [
    "CacheConfig",
    "CacheReport",
    "DEFAULT_CACHE_DIR",
    "FaultPlan",
    "InfeasibleJoinError",
    "JoinPlan",
    "JoinRequest",
    "JoinService",
    "JoinSpec",
    "JoinStats",
    "JoinVerificationError",
    "PartitionCache",
    "RetryPolicy",
    "ServiceConfig",
    "SweepCache",
    "SweepRunner",
    "SweepTask",
    "WorkloadReport",
    "assumption_task",
    "join_task",
    "plan",
    "run_join",
    "run_service",
    "run_sweep",
    "service_task",
    "sweep",
    "trace",
]
