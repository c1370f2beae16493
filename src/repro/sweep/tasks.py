"""Sweep task kinds: payload builders and worker-side executors.

A :class:`SweepTask` is a fully self-describing unit of work — a task
``kind`` plus a JSON-serializable ``payload`` holding generation
parameters only (never live objects).  Workers rebuild relations from
the payload's seeded generator parameters, so a task is cheap to ship
to a worker process and its fingerprint covers everything that
determines the result.

Task kinds:

* ``join`` — run one method on one configuration, returning serialized
  :class:`~repro.core.spec.JoinStats` (or an infeasibility marker);
* ``figure4`` — run one traced CTT-GH join and return the derived disk
  buffer-utilization series (traces themselves are not cacheable);
* ``assumption`` — one of the Section 3.2 assumption measurements;
* ``service`` — run one multi-join workload through the scheduler
  service (``repro.service``) under one policy, returning the
  serialized :class:`~repro.service.metrics.WorkloadReport`.  The
  payload's config carries a ``cache`` key when the partition cache
  (``repro.hsm``) is in play.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.sweep.serialize import (
    disk_from_dict,
    disk_to_dict,
    scale_from_dict,
    scale_to_dict,
    stats_to_dict,
    tape_from_dict,
    tape_to_dict,
)

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
) -> SweepTask:
    """A task running ``symbol`` on one configuration.

    ``r_mb``/``s_mb`` are paper sizes (pre-scale); the worker regenerates
    both relations from the scale's seeded generator parameters.  A
    ``fault_plan`` (``repro.faults``) rides along in the payload — and
    therefore in the fingerprint — only when one is given, so fault-free
    tasks keep their original fingerprints.
    """
    payload = {
        "symbol": symbol,
        "r_mb": r_mb,
        "s_mb": s_mb,
        "memory_blocks": memory_blocks,
        "disk_blocks": disk_blocks,
        "tape": tape_to_dict(tape),
        "disk_params": disk_to_dict(disk_params),
        "scale": scale_to_dict(scale),
        "verify": verify,
    }
    if fault_plan is not None:
        payload["faults"] = {
            "plan": fault_plan.to_dict(),
            "policy": None if retry_policy is None else retry_policy.to_dict(),
        }
    return SweepTask("join", payload)


def figure4_task(
    r_mb: float,
    s_mb: float,
    memory_blocks: float,
    disk_blocks: float,
    tape: "TapeDriveParameters",
    disk_params: "DiskParameters",
    scale: ExperimentScale,
) -> SweepTask:
    """A task tracing one CTT-GH join's Step II buffer utilization."""
    return SweepTask(
        "figure4",
        {
            "r_mb": r_mb,
            "s_mb": s_mb,
            "memory_blocks": memory_blocks,
            "disk_blocks": disk_blocks,
            "tape": tape_to_dict(tape),
            "disk_params": disk_to_dict(disk_params),
            "scale": scale_to_dict(scale),
        },
    )


def assumption_task(check: str, **kwargs) -> SweepTask:
    """A task running one Section 3.2 assumption measurement.

    ``check`` is one of ``media_exchange``, ``disk_positioning`` or
    ``locate_sensitivity``; keyword arguments override the measurement's
    defaults and are resolved here so the fingerprint captures them.
    """
    if check not in _ASSUMPTION_DEFAULTS:
        known = ", ".join(sorted(_ASSUMPTION_DEFAULTS))
        raise KeyError(f"unknown assumption check {check!r}; known: {known}")
    payload = {"check": check, "kwargs": dict(_ASSUMPTION_DEFAULTS[check]())}
    payload["kwargs"].update(kwargs)
    for key, value in payload["kwargs"].items():
        payload["kwargs"][key] = _encode_param(value)
    return SweepTask("assumption", payload)


def service_task(
    policy: str,
    requests: typing.Sequence,
    config,
    estimator: str = "analytical",
    fault_plan=None,
    retry_policy=None,
) -> SweepTask:
    """A task running one service workload under one policy.

    ``requests`` are :class:`~repro.service.requests.JoinRequest`\\ s and
    ``config`` a :class:`~repro.service.requests.ServiceConfig`; both
    serialize losslessly, so the fingerprint covers the whole workload.
    As with ``join`` tasks, the fault payload key exists only when a
    plan is given — fault-free service fingerprints never change.
    ``config.cache`` (a :class:`~repro.hsm.cache.CacheConfig`) is part
    of the serialized config, so cache size and eviction policy are in
    the fingerprint.  Faults and the partition cache are not combined:
    a restarted Step I would have to drop its half-written cache
    entry.
    """
    if fault_plan is not None:
        estimator = "simulated"  # faults only surface in simulated profiles
    payload = {
        "policy": policy,
        "estimator": estimator,
        "requests": [request.to_dict() for request in requests],
        "config": config.to_dict(),
    }
    if fault_plan is not None:
        payload["faults"] = {
            "plan": fault_plan.to_dict(),
            "policy": None if retry_policy is None else retry_policy.to_dict(),
        }
    return SweepTask("service", payload)


def _encode_param(value):
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return dataclasses.asdict(value)
    return value


def _assumption_defaults_media() -> dict:
    from repro.experiments.config import BASE_TAPE

    return {
        "relation_mb": 40960.0,
        "n_volumes": 2,
        "exchange_s": 30.0,
        "tape": BASE_TAPE,
    }


def _assumption_defaults_positioning() -> dict:
    from repro.storage.disk import DiskParameters

    return {"scan_mb": 100.0, "request_blocks": 30.0, "params": DiskParameters()}


def _assumption_defaults_locate() -> dict:
    from repro.experiments.config import ExperimentScale

    return {
        "locate_s_per_gb": 10.0,
        "scale": ExperimentScale(scale=0.25, tuple_bytes=8192),
    }


_ASSUMPTION_DEFAULTS = {
    "media_exchange": _assumption_defaults_media,
    "disk_positioning": _assumption_defaults_positioning,
    "locate_sensitivity": _assumption_defaults_locate,
}


# -- executors (worker side) --------------------------------------------------


def _run_join_task(payload: dict) -> dict:
    from repro.api import run_join
    from repro.core.spec import InfeasibleJoinError

    scale = scale_from_dict(payload["scale"])
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
        tape=tape_from_dict(payload["tape"]),
        disk_params=disk_from_dict(payload["disk_params"]),
        fault_plan=fault_plan,
        retry_policy=retry_policy,
    )
    try:
        stats = run_join(
            spec, method=payload["symbol"], verify=payload.get("verify", False)
        )
    except InfeasibleJoinError as exc:
        return {"infeasible": True, "error": str(exc)}
    return {"infeasible": False, "stats": stats_to_dict(stats)}


def _faults_from_payload(faults: dict):
    from repro.faults.plan import FaultPlan
    from repro.faults.policy import RetryPolicy

    fault_plan = FaultPlan.from_dict(faults["plan"])
    retry_policy = None
    if faults.get("policy") is not None:
        retry_policy = RetryPolicy.from_dict(faults["policy"])
    return fault_plan, retry_policy


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
        [JoinRequest.from_dict(entry) for entry in payload["requests"]],
        config=ServiceConfig.from_dict(payload["config"]),
        policy=payload["policy"],
        estimator=payload.get("estimator", "analytical"),
        fault_plan=fault_plan,
        retry_policy=retry_policy,
    )
    return report.to_dict()


def _run_figure4_task(payload: dict) -> dict:
    # The derivation lives in the generic observability layer now; the
    # task is just a traced run plus one metrics call, and the result
    # dict (and therefore cached figure4 entries) is unchanged.
    from repro.api import run_join
    from repro.obs.metrics import buffer_utilization

    scale = scale_from_dict(payload["scale"])
    relation_r, relation_s = scale.cached_relations(payload["r_mb"], payload["s_mb"])
    capacity = payload["disk_blocks"]
    spec = scale.join_spec(
        relation_r,
        relation_s,
        memory_blocks=payload["memory_blocks"],
        disk_blocks=capacity,
        tape=tape_from_dict(payload["tape"]),
        disk_params=disk_from_dict(payload["disk_params"]),
        trace_devices=True,
    )
    stats = run_join(spec, method="CTT-GH")
    return buffer_utilization(
        stats.observer, "s_buffer", capacity, (stats.step1_s, stats.response_s)
    )


def _run_assumption_task(payload: dict) -> dict:
    # Imported lazily: repro.experiments.assumptions imports repro.sweep
    # at module level, so a top-level import here would be circular.
    from repro.experiments import assumptions

    kwargs = dict(payload["kwargs"])
    check = payload["check"]
    if check == "media_exchange":
        kwargs["tape"] = tape_from_dict(kwargs["tape"])
        result = assumptions.media_exchange_share(**kwargs)
    elif check == "disk_positioning":
        kwargs["params"] = disk_from_dict(kwargs["params"])
        result = assumptions.disk_positioning_share(**kwargs)
    elif check == "locate_sensitivity":
        kwargs["scale"] = scale_from_dict(kwargs["scale"])
        result = assumptions.locate_model_sensitivity(**kwargs)
    else:  # pragma: no cover - builders reject unknown checks
        raise KeyError(f"unknown assumption check {check!r}")
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
    "figure4": _run_figure4_task,
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
