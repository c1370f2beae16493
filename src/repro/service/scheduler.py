"""The multi-join service: admission, leasing, execution, reporting.

:class:`JoinService` accepts a queue of :class:`~repro.service.requests.
JoinRequest`\\ s and runs them end to end against shared hardware:

1. **Admission** — each request is turned into a real
   :class:`~repro.core.spec.JoinSpec` and planned via
   ``repro.core.planner``; requests no method can serve under Table 2
   are rejected with the planner's reason, as are requests exceeding
   the service's memory/disk pools (granting them would wedge the
   broker).
2. **Ordering** — a :class:`~repro.service.policies.SchedulingPolicy`
   reorders the admitted batch (FIFO / SJF / tape-affinity).
3. **Execution** — a discrete-event run over the
   :class:`~repro.service.broker.ResourceBroker`: each job leases its
   memory and disk budget, then mounts and streams.  Disk-based methods
   hold the R drive only for Step I and release it before Step II runs
   against the disk array — so the next job's tape-bound Step I
   overlaps this job's disk-resident Step II exactly like the paper's
   CDT concurrency, one level up.  Tape–tape methods (CTT/TT) hold
   both drives throughout.
4. **Reporting** — a :class:`~repro.service.metrics.WorkloadReport`
   with makespan, mean/p95 latency, drive utilization and exchange
   counts, plus the run's observer for Perfetto export.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.core.planner import JoinPlan, plan_join
from repro.core.spec import InfeasibleJoinError, JoinSpec
from repro.costmodel.formulas import CostBreakdown
from repro.obs.metrics import device_utilization
from repro.obs.recorder import JoinObserver
from repro.service.broker import ResourceBroker
from repro.service.estimators import (
    AnalyticalEstimator,
    JobProfile,
    SimulatedEstimator,
)
from repro.service.metrics import JobOutcome, WorkloadReport, percentile
from repro.service.policies import SchedulingPolicy, policy_by_name
from repro.service.requests import JoinRequest, ServiceConfig
from repro.simulator.engine import Simulator

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan
    from repro.faults.policy import RetryPolicy
    from repro.hsm.catalog import PartitionSetKey


@dataclasses.dataclass
class AdmittedJob:
    """A request that passed admission, with its plan and budgets."""

    index: int
    request: JoinRequest
    spec: JoinSpec
    plan: JoinPlan
    symbol: str
    breakdown: CostBreakdown
    estimated_s: float
    memory_blocks: float
    disk_blocks: float
    profile: JobProfile | None = None
    #: HSM partition-cache key for this job's Step I output; None when
    #: the service has no cache or the method's Step I is not cacheable.
    cache_key: "PartitionSetKey | None" = None


class JoinService:
    """A queue of join requests scheduled onto shared tape hardware."""

    def __init__(
        self,
        config: ServiceConfig | None = None,
        estimator: AnalyticalEstimator | SimulatedEstimator | None = None,
    ):
        self.config = config or ServiceConfig()
        self.estimator = estimator or AnalyticalEstimator()
        self._requests: list[JoinRequest] = []
        # The partition cache is owned by the *service*, not by a run:
        # it survives across run() calls, so a second pass over the same
        # workload starts warm (see docs/hsm.md).
        if self.config.cache is not None:
            from repro.hsm.cache import PartitionCache

            self.cache = PartitionCache.from_config(
                self.config.cache, self.config.scale
            )
        else:
            self.cache = None

    def submit(self, request: JoinRequest | None = None, **kwargs) -> JoinRequest:
        """Queue a request (or build one from keyword arguments)."""
        if request is None:
            request = JoinRequest(**kwargs)
        elif kwargs:
            raise TypeError("pass either a JoinRequest or keyword arguments")
        if any(earlier.name == request.name for earlier in self._requests):
            raise ValueError(f"a request named {request.name!r} is already queued")
        self._check_volume_sizes(request)
        self._requests.append(request)
        return request

    @property
    def requests(self) -> tuple[JoinRequest, ...]:
        """The submitted queue, in submission order."""
        return tuple(self._requests)

    def _check_volume_sizes(self, request: JoinRequest) -> None:
        """A cartridge holds one relation: shared volumes need one size."""
        sizes: dict[str, float] = {}
        for earlier in self._requests:
            sizes[earlier.volume_r] = earlier.r_mb
            sizes[earlier.volume_s] = earlier.s_mb
        for volume, mb in ((request.volume_r, request.r_mb), (request.volume_s, request.s_mb)):
            known = sizes.get(volume)
            if known is not None and known != mb:
                raise ValueError(
                    f"request {request.name!r}: volume {volume!r} already holds "
                    f"a {known} MB relation, cannot also hold {mb} MB"
                )

    # -- admission --------------------------------------------------------------

    def _budgets(self, request: JoinRequest) -> tuple[float, float, float]:
        """(memory_blocks, disk_blocks, r_blocks) for one request."""
        config = self.config
        scale = config.scale
        r_blocks = scale.relation_blocks(request.r_mb)
        memory = scale.blocks(request.memory_mb or config.memory_mb)
        if config.clamp_memory_floor:
            floor = 1.05 * math.sqrt(r_blocks)
            memory = min(max(memory, floor), max(r_blocks - 1.0, floor))
        disk = scale.blocks(request.disk_mb or config.disk_mb)
        return memory, disk, r_blocks

    def _admit_one(self, index: int, request: JoinRequest):
        """Plan one request; returns (AdmittedJob, None) or (None, reason)."""
        config = self.config
        scale = config.scale
        memory, disk, _ = self._budgets(request)
        if memory > scale.blocks(config.pool_memory_mb):
            return None, (
                f"needs {memory:.0f} memory blocks but the service pool holds "
                f"{scale.blocks(config.pool_memory_mb):.0f}"
            )
        if disk > scale.blocks(config.pool_disk_mb):
            return None, (
                f"needs {disk:.0f} disk blocks but the service pool holds "
                f"{scale.blocks(config.pool_disk_mb):.0f}"
            )
        relation_r, relation_s = scale.cached_relations(request.r_mb, request.s_mb)
        scratch = {}
        if request.scratch_r_mb is not None:
            scratch["scratch_r_blocks"] = scale.blocks(request.scratch_r_mb)
        if request.scratch_s_mb is not None:
            scratch["scratch_s_blocks"] = scale.blocks(request.scratch_s_mb)
        try:
            spec = JoinSpec(
                relation_r,
                relation_s,
                memory_blocks=memory,
                disk_blocks=disk,
                n_disks=scale.n_disks,
                disk_params=config.disk_params,
                tape_params_r=config.tape,
                tape_params_s=config.tape,
                **scratch,
            )
            plan = plan_join(spec)
        except (InfeasibleJoinError, ValueError) as exc:
            return None, str(exc)
        symbol = request.method or plan.chosen
        ranked = {entry.symbol: entry for entry in plan.ranked}
        if symbol not in ranked:
            reasons = dict(plan.rejected)
            return None, (
                f"requested method {symbol} is infeasible here: "
                f"{reasons.get(symbol, 'unknown method')}"
            )
        from repro.service.estimators import TAPE_STEP2_SYMBOLS

        if symbol in TAPE_STEP2_SYMBOLS and config.n_drives < 2:
            return None, (
                f"method {symbol} joins tape-to-tape and needs two drives; "
                f"the service has {config.n_drives}"
            )
        entry = ranked[symbol]
        cache_key = None
        if self.cache is not None:
            from repro.service.estimators import CACHEABLE_STEP1_SYMBOLS

            if symbol in CACHEABLE_STEP1_SYMBOLS:
                from repro.core.base import GraceHashLayout

                n_buckets = GraceHashLayout(spec).n_buckets
                cache_key = self.cache.r_partition_key(spec.relation_r, n_buckets)
        return (
            AdmittedJob(
                index=index,
                request=request,
                spec=spec,
                plan=plan,
                symbol=symbol,
                breakdown=entry.breakdown,
                estimated_s=entry.estimated_s,
                memory_blocks=memory,
                disk_blocks=disk,
                cache_key=cache_key,
            ),
            None,
        )

    def admit(self) -> tuple[list[AdmittedJob], list[JobOutcome]]:
        """Plan every submitted request; infeasible ones become outcomes."""
        admitted: list[AdmittedJob] = []
        rejected: list[JobOutcome] = []
        for index, request in enumerate(self._requests):
            job, reason = self._admit_one(index, request)
            if job is not None:
                admitted.append(job)
            else:
                rejected.append(
                    JobOutcome(
                        name=request.name,
                        status="rejected",
                        reason=reason,
                        submitted_s=request.arrival_s,
                        deadline_s=request.deadline_s,
                    )
                )
        return admitted, rejected

    # -- execution --------------------------------------------------------------

    def run(self, policy: str | SchedulingPolicy = "fifo") -> WorkloadReport:
        """Admit, order, simulate and report the whole queue."""
        if isinstance(policy, str):
            policy = policy_by_name(policy)
        config = self.config
        admitted, rejected = self.admit()
        for job in admitted:
            job.profile = self.estimator.profile(job)

        ordered = policy.order(admitted)
        sim = Simulator()
        observer = JoinObserver()
        scale = config.scale
        broker = ResourceBroker(
            sim,
            n_drives=config.n_drives,
            memory_blocks=scale.blocks(config.pool_memory_mb),
            disk_blocks=scale.blocks(config.pool_disk_mb),
            exchange_s=config.exchange_s,
            block_spec=scale.block_spec,
            drive_params=config.tape,
            observer=observer,
        )
        for job in ordered:
            broker.register_volume(job.request.volume_r)
            broker.register_volume(job.request.volume_s)
        records: dict[int, dict] = {}
        for job in ordered:
            sim.process(
                self._job_process(sim, broker, observer, job, records),
                name=job.request.name,
            )
        cache_before = self.cache.report() if self.cache is not None else None
        sim.run()
        return self._report(
            policy, admitted, rejected, records, broker, observer, cache_before
        )

    def _offer_partition(self, job: AdmittedJob, observer) -> None:
        """Offer a finished Step I's R partition to the cache.

        The service models Step I as an opaque busy window, so there is
        no materialized bucket data to keep; the catalog tracks the
        partition's disk *footprint* (its blocks, spread over the
        layout's buckets) and its value — the profiled Step I seconds a
        future hit saves.  No producer pin: once offered, the entry is
        fair game for eviction until some job's hit pins it.
        """
        if self.cache is None or job.cache_key is None:
            return
        n_buckets = job.cache_key.n_buckets
        share = job.spec.size_r_blocks / n_buckets
        admitted = self.cache.admit(
            job.cache_key,
            [(share, None)] * n_buckets,
            value_s=job.profile.step1_s,
        )
        if admitted:
            observer.count("cache.admit")

    def _job_process(self, sim, broker, observer, job, records):
        """One job's lifetime: pools, mounts, Step I, Step II, release."""
        request = job.request
        profile = job.profile
        if request.arrival_s > 0:
            yield sim.timeout(request.arrival_s)
        submitted = sim.now
        yield broker.memory.get(job.memory_blocks)
        yield broker.disk.get(job.disk_blocks)
        exchanges = 0
        if profile.tape_step2:
            # CTT/TT: both drives, held through both steps.
            leases = yield broker.acquire([request.volume_r, request.volume_s])
            exchanges += yield from broker.mount(leases[0], request.volume_r)
            exchanges += yield from broker.mount(leases[1], request.volume_s)
            started = sim.now
            yield sim.timeout(profile.step1_s)
            step2_start = sim.now
            yield sim.timeout(profile.step2_s)
            finished = sim.now
            for lease, kind1, kind2 in (
                (leases[0], "step1-read", "step2-bucket"),
                (leases[1], "step1-scratch", "step2-read"),
            ):
                observer.device_busy(lease.name, started, step2_start, kind1)
                observer.device_busy(lease.name, step2_start, finished, kind2)
            observer.device_busy("disk-array", step2_start, finished, "step2")
            broker.release(leases)
        else:
            # Disk-based methods: R drive for Step I only, then the disk
            # array serves Step II while the drive moves to the next job.
            # With an HSM cache, a resident R partition skips the R drive
            # entirely; the hit pins the set so it survives until Step II
            # finishes reading it.
            pinned = (
                job.cache_key is not None
                and self.cache.lookup(job.cache_key, count_miss=False) is not None
            )
            if not pinned:
                leases = yield broker.acquire([request.volume_r])
                # Double-checked: an earlier job sharing this relation
                # may have populated the cache while this one queued for
                # the drive.  The second lookup counts the miss.
                if (
                    job.cache_key is not None
                    and self.cache.lookup(job.cache_key) is not None
                ):
                    pinned = True
                    broker.release(leases)
                else:
                    if job.cache_key is not None:
                        observer.count("cache.miss")
                    exchanges += yield from broker.mount(leases[0], request.volume_r)
                    started = sim.now
                    yield sim.timeout(profile.step1_s)
                    observer.device_busy(leases[0].name, started, sim.now, "step1-read")
                    observer.device_busy("disk-array", started, sim.now, "step1-write")
                    broker.release(leases)
                    self._offer_partition(job, observer)
            leases = yield broker.acquire([request.volume_s])
            exchanges += yield from broker.mount(leases[0], request.volume_s)
            if pinned:
                started = sim.now
                observer.count("cache.hit")
                observer.span(
                    f"{request.name} cache hit", started, started, cat="cache"
                )
            step2_start = sim.now
            yield sim.timeout(profile.step2_s)
            finished = sim.now
            observer.device_busy(leases[0].name, step2_start, finished, "step2-read")
            observer.device_busy("disk-array", step2_start, finished, "step2")
            broker.release(leases)
            if pinned:
                self.cache.unpin(job.cache_key)
        broker.disk.put(job.disk_blocks)
        broker.memory.put(job.memory_blocks)
        observer.span(request.name, submitted, finished, cat="job")
        if started > submitted:
            observer.span(f"{request.name} queued", submitted, started, cat="wait")
        observer.span(f"{request.name} step1", started, step2_start, cat="step1")
        observer.span(f"{request.name} step2", step2_start, finished, cat="step2")
        records[job.index] = {
            "submitted_s": submitted,
            "started_s": started,
            "finished_s": finished,
            "exchanges": exchanges,
        }

    def _report(
        self, policy, admitted, rejected, records, broker, observer, cache_before=None
    ):
        """Assemble the WorkloadReport from run records.

        ``cache_before`` is the cache's counter snapshot taken before
        the simulation ran; the report shows *this run's* hits/misses
        even though the cache itself persists across runs.
        """
        outcomes: list[JobOutcome] = list(rejected)
        fault_events = 0
        fault_recovery_s = 0.0
        for job in admitted:
            record = records[job.index]
            outcomes.append(
                JobOutcome(
                    name=job.request.name,
                    status="completed",
                    symbol=job.symbol,
                    submitted_s=record["submitted_s"],
                    started_s=record["started_s"],
                    finished_s=record["finished_s"],
                    estimated_s=job.estimated_s,
                    exchanges=record["exchanges"],
                    deadline_s=job.request.deadline_s,
                )
            )
            fault_events += job.profile.fault_events
            fault_recovery_s += job.profile.fault_recovery_s
        order = {request.name: i for i, request in enumerate(self._requests)}
        outcomes.sort(key=lambda outcome: order[outcome.name])
        completed = [o for o in outcomes if o.status == "completed"]
        latencies = [o.latency_s for o in completed]
        makespan = max((o.finished_s for o in completed), default=0.0)
        utilization = (
            device_utilization(observer, (0.0, makespan)) if makespan > 0 else {}
        )
        return WorkloadReport(
            policy=policy.name,
            estimator=self.estimator.name,
            outcomes=tuple(outcomes),
            makespan_s=makespan,
            mean_latency_s=sum(latencies) / len(latencies) if latencies else 0.0,
            p95_latency_s=percentile(latencies, 0.95),
            device_utilization=utilization,
            exchanges=broker.exchanges,
            deadline_misses=sum(1 for o in outcomes if o.deadline_met is False),
            fault_events=fault_events,
            fault_recovery_s=fault_recovery_s,
            cache=(
                self.cache.report(since=cache_before)
                if self.cache is not None
                else None
            ),
            observer=observer,
        )


def _resolve_estimator(estimator, fault_plan, retry_policy):
    """Map the estimator argument + fault knob onto an instance."""
    if estimator is None:
        estimator = "simulated" if fault_plan is not None else "analytical"
    if isinstance(estimator, str):
        if estimator == "analytical":
            if fault_plan is not None:
                raise ValueError(
                    "fault injection needs simulated profiles; drop "
                    "estimator='analytical' or the fault plan"
                )
            return AnalyticalEstimator()
        if estimator == "simulated":
            return SimulatedEstimator(fault_plan, retry_policy)
        raise ValueError(f"unknown estimator {estimator!r}")
    return estimator


def run_service(
    requests: typing.Iterable[JoinRequest],
    *,
    config: ServiceConfig | None = None,
    policy: str | SchedulingPolicy = "fifo",
    estimator: str | AnalyticalEstimator | SimulatedEstimator | None = None,
    fault_rate: float = 0.0,
    fault_seed: int = 0,
    fault_plan: "FaultPlan | None" = None,
    retry_policy: "RetryPolicy | None" = None,
) -> WorkloadReport:
    """Run a workload through the service in one call.

    ``fault_rate`` > 0 builds a uniform
    :class:`~repro.faults.plan.FaultPlan` (seeded by ``fault_seed``) and
    switches to simulated profiles so injected faults stretch the
    schedule; an explicit ``fault_plan`` takes precedence.  To export
    the run's trace, use :func:`repro.api.run_service` with
    ``trace_out=``.
    """
    if fault_plan is None and fault_rate > 0:
        from repro.faults.plan import FaultPlan

        fault_plan = FaultPlan.uniform(fault_rate, seed=fault_seed)
    service = JoinService(
        config, estimator=_resolve_estimator(estimator, fault_plan, retry_policy)
    )
    for request in requests:
        service.submit(request)
    return service.run(policy=policy)
