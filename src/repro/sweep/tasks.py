"""Sweep task kinds: payload builders and worker-side executors.

A :class:`SweepTask` is a fully self-describing unit of work — a task
``kind`` plus a JSON-serializable ``payload`` holding generation
parameters only (never live objects).  Workers rebuild relations from
the payload's seeded generator parameters, so a task is cheap to ship
to a worker process and its fingerprint covers everything that
determines the result.

Task kinds:

* ``join`` — run one method on one configuration, returning serialized
  :class:`~repro.core.spec.JoinStats` (or an infeasibility marker); a
  traced join also returns the Figure 4 buffer-utilization series
  derived from its trace (traces themselves are not cacheable);
* ``assumption`` — one of the Section 3.2 assumption measurements;
* ``service`` — run one multi-join workload through the scheduler
  service (``repro.service``) under one policy, returning the
  serialized :class:`~repro.service.metrics.WorkloadReport`.  The
  payload's config carries a ``cache`` key when the partition cache
  (``repro.hsm``) is in play.
"""

from __future__ import annotations

import dataclasses
import inspect
import typing

from repro.sweep.serialize import rebuild, stats_to_dict

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    # repro.experiments imports the sweep package; resolve the reverse
    # dependency lazily so either side can be imported first.
    from repro.experiments.config import ExperimentScale
    from repro.storage.disk import DiskParameters
    from repro.storage.tape import TapeDriveParameters


@dataclasses.dataclass(frozen=True)
class SweepTask:
    """One unit of sweep work: a kind and a JSON-serializable payload."""

    kind: str
    payload: dict


# -- payload builders (caller side) ------------------------------------------


def join_task(
    symbol: str,
    r_mb: float,
    s_mb: float,
    memory_blocks: float,
    disk_blocks: float,
    tape: "TapeDriveParameters",
    disk_params: "DiskParameters",
    scale: ExperimentScale,
    verify: bool = False,
    fault_plan=None,
    retry_policy=None,
    trace: bool = False,
) -> SweepTask:
    """A task running ``symbol`` on one configuration.

    ``r_mb``/``s_mb`` are paper sizes (pre-scale); the worker regenerates
    both relations from the scale's seeded generator parameters.  A
    ``fault_plan`` (``repro.faults``) rides along in the payload — and
    therefore in the fingerprint — only when one is given, so fault-free
    tasks keep their original fingerprints.  ``trace`` likewise adds a
    key only when set: the worker then runs with device tracing and
    returns the occupancy of the method's interleaved S buffer as a
    share of D (the Figure 4 series) as ``"buffer"`` beside the stats.
    Tracing changes no simulated time.
    """
    payload = {
        "symbol": symbol,
        "r_mb": r_mb,
        "s_mb": s_mb,
        "memory_blocks": memory_blocks,
        "disk_blocks": disk_blocks,
        "tape": dataclasses.asdict(tape),
        "disk_params": dataclasses.asdict(disk_params),
        "scale": dataclasses.asdict(scale),
        "verify": verify,
    }
    if fault_plan is not None:
        payload["faults"] = _faults_to_payload(fault_plan, retry_policy)
    if trace:
        payload["trace"] = True
    return SweepTask("join", payload)


def assumption_task(check: str, **kwargs) -> SweepTask:
    """A task running one Section 3.2 assumption measurement.

    ``check`` names one of :data:`repro.experiments.assumptions.CHECKS`;
    keyword arguments override the measurement's defaults, which are read
    from its signature here so the fingerprint captures them.
    """
    from repro.experiments.assumptions import CHECKS

    if check not in CHECKS:
        known = ", ".join(sorted(CHECKS))
        raise KeyError(f"unknown assumption check {check!r}; known: {known}")
    parameters = inspect.signature(CHECKS[check]).parameters
    values = {name: parameter.default for name, parameter in parameters.items()}
    values.update(kwargs)
    for name, value in values.items():
        if dataclasses.is_dataclass(value):
            values[name] = dataclasses.asdict(value)
    return SweepTask("assumption", {"check": check, "kwargs": values})


def service_task(
    policy: str,
    requests: typing.Sequence,
    config,
    fault_plan=None,
    retry_policy=None,
) -> SweepTask:
    """A task running one service workload under one policy.

    ``requests`` are :class:`~repro.service.requests.JoinRequest`\\ s and
    ``config`` a :class:`~repro.service.requests.ServiceConfig`; both
    serialize losslessly, so the fingerprint covers the whole workload.
    As with ``join`` tasks, the fault payload key exists only when a
    plan is given; a plan also makes the service profile its jobs by
    simulation (:func:`~repro.service.scheduler.run_service`).
    ``config.cache`` (a :class:`~repro.hsm.cache.CacheConfig`) is part
    of the serialized config, so cache size and eviction policy are in
    the fingerprint.  Faults and the partition cache are not combined:
    a restarted Step I would have to drop its half-written cache
    entry.
    """
    payload = {
        "policy": policy,
        "requests": [request.to_dict() for request in requests],
        "config": config.to_dict(),
    }
    if fault_plan is not None:
        payload["faults"] = _faults_to_payload(fault_plan, retry_policy)
    return SweepTask("service", payload)


# -- executors (worker side) --------------------------------------------------


def _run_join_task(payload: dict) -> dict:
    from repro.api import run_join
    from repro.core.spec import InfeasibleJoinError
    from repro.experiments.config import ExperimentScale
    from repro.obs.metrics import buffer_utilization
    from repro.storage.disk import DiskParameters
    from repro.storage.tape import TapeDriveParameters

    scale = rebuild(ExperimentScale, payload["scale"])
    relation_r, relation_s = scale.cached_relations(payload["r_mb"], payload["s_mb"])
    fault_plan = retry_policy = None
    faults = payload.get("faults")
    if faults is not None:
        fault_plan, retry_policy = _faults_from_payload(faults)
    spec = scale.join_spec(
        relation_r,
        relation_s,
        memory_blocks=payload["memory_blocks"],
        disk_blocks=payload["disk_blocks"],
        tape=rebuild(TapeDriveParameters, payload["tape"]),
        disk_params=rebuild(DiskParameters, payload["disk_params"]),
        fault_plan=fault_plan,
        retry_policy=retry_policy,
        trace_devices=payload.get("trace", False),
    )
    try:
        stats = run_join(
            spec, method=payload["symbol"], verify=payload.get("verify", False)
        )
    except InfeasibleJoinError as exc:
        return {"infeasible": True, "error": str(exc)}
    result = {"infeasible": False, "stats": stats_to_dict(stats)}
    if payload.get("trace"):
        result["buffer"] = buffer_utilization(
            stats.observer, "s_buffer", payload["disk_blocks"],
            (stats.step1_s, stats.response_s),
        )
    return result


def _faults_to_payload(fault_plan, retry_policy) -> dict:
    """The plan and the policy that will run, the default one named
    explicitly, so the fingerprint keys on it."""
    from repro.faults.policy import RetryPolicy

    return {
        "plan": dataclasses.asdict(fault_plan),
        "policy": dataclasses.asdict(retry_policy or RetryPolicy()),
    }


def _faults_from_payload(faults: dict):
    from repro.faults.plan import FaultPlan
    from repro.faults.policy import RetryPolicy

    return rebuild(FaultPlan, faults["plan"]), rebuild(RetryPolicy, faults["policy"])


def _run_service_task(payload: dict) -> dict:
    # Lazy: the service package imports the planner and experiment
    # config; workers that never see a service task never pay for it.
    from repro.service.requests import JoinRequest, ServiceConfig
    from repro.service.scheduler import run_service

    fault_plan = retry_policy = None
    faults = payload.get("faults")
    if faults is not None:
        fault_plan, retry_policy = _faults_from_payload(faults)
    report = run_service(
        [rebuild(JoinRequest, entry) for entry in payload["requests"]],
        config=rebuild(ServiceConfig, payload["config"]),
        policy=payload["policy"],
        fault_plan=fault_plan,
        retry_policy=retry_policy,
    )
    return report.to_dict()


def _run_assumption_task(payload: dict) -> dict:
    # Imported lazily: repro.experiments.assumptions imports repro.sweep
    # at module level, so a top-level import here would be circular.
    from repro.experiments.assumptions import CHECKS

    check = payload["check"]
    result = rebuild(CHECKS[check], payload["kwargs"])
    return {"check": check, "data": dataclasses.asdict(result)}


def _run_selftest_task(payload: dict) -> dict:
    """Worker-behaviour probe used by the sweep-hardening tests.

    Modes: ``ok`` returns immediately; ``sleep`` busy-waits for
    ``seconds`` (checking ``stop_file`` so tests can release a detached
    worker); ``die`` hard-exits the hosting process — but only when that
    process really is a pool worker, so a stray payload cannot kill an
    interactive session.  With ``once_file`` set, ``die`` kills only the
    first attempt and succeeds on re-dispatch.
    """
    import multiprocessing
    import os
    import time

    mode = payload.get("mode", "ok")
    if mode == "sleep":
        deadline = time.monotonic() + float(payload.get("seconds", 1.0))
        stop_file = payload.get("stop_file")
        while time.monotonic() < deadline:
            if stop_file and os.path.exists(stop_file):
                break
            time.sleep(0.02)
        return {"ok": True, "mode": mode}
    if mode == "die":
        once_file = payload.get("once_file")
        first = once_file is None or not os.path.exists(once_file)
        if first and once_file is not None:
            with open(once_file, "w", encoding="utf-8") as handle:
                handle.write("died once")
        if first and multiprocessing.parent_process() is not None:
            os._exit(13)
        return {"ok": True, "mode": mode, "survived": True}
    if mode == "raise":
        raise RuntimeError("selftest task raised")
    return {"ok": True, "mode": mode, "n": payload.get("n")}


_EXECUTORS: dict[str, typing.Callable[[dict], dict]] = {
    "join": _run_join_task,
    "assumption": _run_assumption_task,
    "selftest": _run_selftest_task,
    "service": _run_service_task,
}


def execute_task(kind: str, payload: dict) -> dict:
    """Run one task to completion; the worker-process entry point."""
    try:
        executor = _EXECUTORS[kind]
    except KeyError:
        known = ", ".join(sorted(_EXECUTORS))
        raise KeyError(f"unknown task kind {kind!r}; known: {known}") from None
    return executor(payload)
