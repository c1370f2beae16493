"""Experiment 5: multi-join scheduling policies on a shared tape library.

This experiment has no counterpart in the paper, which models one ad hoc
join on dedicated hardware (Section 3).  It batches a mixed workload of
dimension-fact joins — two shared dimension cartridges interleaved
across jobs, private fact cartridges, job sizes spanning an order of
magnitude — onto one two-drive library and compares the service's
scheduling policies (``repro.service``):

* **fifo** — submission order; the baseline.
* **sjf** — shortest-job-first on the planner's cost estimates.
* **affinity** — tape-affinity batching: jobs sharing a dimension
  cartridge run back to back so the robot stops swapping it.

Curves report makespan and mean latency versus workload size per
policy.  The workload interleaves the two dimension volumes and fronts
the big jobs, so FIFO pays a robot exchange on nearly every job and
queues small jobs behind huge ones — the regime where affinity cuts
makespan and SJF cuts mean latency, which the service tests assert
strictly.  Runs go through the sweep engine (cached, parallelizable);
``--fault-rate`` > 0 switches to simulated job profiles under a seeded
:class:`~repro.faults.plan.FaultPlan`, so device faults stretch the
schedule itself.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.experiments.config import ExperimentScale
from repro.experiments.report import format_series
from repro.service.requests import JoinRequest, ServiceConfig
from repro.sweep.runner import Sweep, SweepRunner
from repro.sweep.tasks import service_task

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan

#: The compared policies, in presentation order.
EXPERIMENT5_POLICIES: tuple[str, ...] = ("fifo", "sjf", "affinity")

#: Fact-table sizes in paper MB, big jobs fronted (FIFO's worst case
#: for mean latency; SJF reorders them to the back).
EXPERIMENT5_FACT_MB: tuple[float, ...] = (
    1600.0, 250.0, 900.0, 400.0, 1200.0, 160.0, 700.0, 2000.0, 320.0, 1100.0,
)

#: The two shared dimension cartridges (name, size in paper MB);
#: consecutive jobs alternate between them (FIFO's worst case for robot
#: exchanges; affinity groups them).
EXPERIMENT5_DIMENSIONS: tuple[tuple[str, float], ...] = (
    ("dim-a", 80.0),
    ("dim-b", 64.0),
)


def service_workload(n_jobs: int = 10) -> list[JoinRequest]:
    """The deterministic mixed workload the policies are compared on."""
    if n_jobs < 1:
        raise ValueError(f"need at least one job, got {n_jobs}")
    requests = []
    for i in range(n_jobs):
        volume, r_mb = EXPERIMENT5_DIMENSIONS[i % len(EXPERIMENT5_DIMENSIONS)]
        requests.append(
            JoinRequest(
                name=f"job{i:02d}",
                r_mb=r_mb,
                s_mb=EXPERIMENT5_FACT_MB[i % len(EXPERIMENT5_FACT_MB)],
                r_volume=volume,
            )
        )
    return requests


def experiment5_config(scale: ExperimentScale) -> ServiceConfig:
    """The shared two-drive library every policy is measured against."""
    return ServiceConfig(scale=scale)


@dataclasses.dataclass(frozen=True)
class Experiment5Point:
    """One (policy, workload size) measurement."""

    n_jobs: int
    makespan_s: float
    mean_latency_s: float
    p95_latency_s: float
    exchanges: int
    rejected: int


@dataclasses.dataclass(frozen=True)
class Experiment5Result:
    """Policy-comparison curves over workload size."""

    sizes: tuple[int, ...]
    series: dict[str, list[Experiment5Point]]
    estimator: str
    fault_rate: float
    fault_seed: int

    def makespan_series(self) -> dict[str, list[float]]:
        """Makespan (s) per policy over workload size."""
        return {
            policy: [point.makespan_s for point in points]
            for policy, points in self.series.items()
        }

    def mean_latency_series(self) -> dict[str, list[float]]:
        """Mean job latency (s) per policy over workload size."""
        return {
            policy: [point.mean_latency_s for point in points]
            for policy, points in self.series.items()
        }

    def render(self) -> str:
        """Two curve tables: makespan and mean latency versus jobs."""
        title = (
            "Experiment 5: scheduling policies on a shared tape library\n"
            f"({self.estimator} job profiles"
            + (
                f"; fault rate {self.fault_rate}, seed {self.fault_seed})"
                if self.fault_rate > 0
                else ")"
            )
        )
        makespan = format_series(
            "jobs", [float(n) for n in self.sizes], self.makespan_series(), "{:.0f}"
        )
        latency = format_series(
            "jobs",
            [float(n) for n in self.sizes],
            self.mean_latency_series(),
            "{:.0f}",
        )
        return (
            f"{title}\nmakespan (s):\n{makespan}\n"
            f"mean latency (s):\n{latency}"
        )

    def to_dict(self) -> dict:
        """JSON-serializable form of the policy curves."""
        return {
            "estimator": self.estimator,
            "fault_rate": self.fault_rate,
            "fault_seed": self.fault_seed,
            "sizes": list(self.sizes),
            "series": {
                policy: [dataclasses.asdict(point) for point in points]
                for policy, points in self.series.items()
            },
        }


def workload_sizes(max_jobs: int) -> tuple[int, ...]:
    """The swept workload sizes: 2, 4, ... up to ``max_jobs``."""
    if max_jobs < 1:
        raise ValueError(f"need at least one job, got {max_jobs}")
    if max_jobs < 2:
        return (max_jobs,)
    return tuple(range(2, max_jobs + 1, 2))


def experiment5_sweep(
    scale: ExperimentScale | None = None,
    policies: typing.Sequence[str] = EXPERIMENT5_POLICIES,
    max_jobs: int = 10,
    fault_rate: float = 0.0,
    fault_seed: int = 0,
) -> Sweep:
    """(policy x workload size) through the service scheduler.

    Its trace step re-runs each policy's largest workload in process
    with the observer attached and exports it as
    ``service-<policy>.jsonl`` / ``.trace.json`` (sweep workers return
    serialized reports, which cannot carry observers).
    """
    scale = scale or ExperimentScale()
    config = experiment5_config(scale)
    sizes = workload_sizes(max_jobs)

    fault_plan: "FaultPlan | None" = None
    retry_policy = None
    estimator = "analytical"
    if fault_rate > 0:
        from repro.faults.plan import FaultPlan
        from repro.faults.policy import RetryPolicy

        fault_plan = FaultPlan.uniform(fault_rate, seed=fault_seed)
        retry_policy = RetryPolicy()
        estimator = "simulated"

    points = [(policy, n) for policy in policies for n in sizes]
    tasks = [
        service_task(
            policy,
            service_workload(n),
            config,
            estimator=estimator,
            fault_plan=fault_plan,
            retry_policy=retry_policy,
        )
        for policy, n in points
    ]

    def assemble(results: list[dict]) -> Experiment5Result:
        series: dict[str, list[Experiment5Point]] = {policy: [] for policy in policies}
        for (policy, n), report in zip(points, results):
            outcomes = report["outcomes"]
            series[policy].append(
                Experiment5Point(
                    n_jobs=n,
                    makespan_s=report["makespan_s"],
                    mean_latency_s=report["mean_latency_s"],
                    p95_latency_s=report["p95_latency_s"],
                    exchanges=report["exchanges"],
                    rejected=sum(entry["status"] == "rejected" for entry in outcomes),
                )
            )
        return Experiment5Result(sizes, series, estimator, fault_rate, fault_seed)

    def trace(trace_out: str) -> None:
        from repro.api import run_service

        for policy in policies:
            run_service(
                service_workload(max_jobs),
                config=config,
                policy=policy,
                estimator=estimator,
                fault_plan=fault_plan,
                retry_policy=retry_policy,
                trace_out=trace_out,
            )

    return Sweep(tasks, assemble, trace)


def run_experiment5(
    *args, runner: SweepRunner | None = None, trace_out: str | None = None, **kwargs
) -> Experiment5Result:
    """Run :func:`experiment5_sweep` (same arguments) through ``runner``;
    with ``trace_out``, then write its traces there."""
    return experiment5_sweep(*args, **kwargs).run(runner, trace_out)
