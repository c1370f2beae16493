"""Job duration profiles: how long each admitted join holds devices.

The scheduler charges each job's Step I / Step II as opaque busy windows
on the drives and the disk array; a profile says how long those windows
are.  Two sources:

* :class:`AnalyticalEstimator` — the planner's closed-form cost model
  (``repro.costmodel``).  Instant, deterministic, and exactly what the
  paper's Section 4 predicts; the default.
* :class:`SimulatedEstimator` — runs the chosen method through the full
  discrete-event simulation once per unique job shape (memoized) and
  profiles the measured Step I/II times.  This is the path the fault
  knob uses: a :class:`~repro.faults.plan.FaultPlan` stretches the
  simulated windows by retry/recovery time, so injected faults surface
  in service makespan and latency.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.registry import method_by_symbol

if typing.TYPE_CHECKING:  # pragma: no cover - cycle guard
    from repro.faults.plan import FaultPlan
    from repro.faults.policy import RetryPolicy
    from repro.service.scheduler import AdmittedJob


@dataclasses.dataclass(frozen=True)
class JobProfile:
    """One job's device-holding windows and fault accounting."""

    step1_s: float
    step2_s: float
    tape_step2: bool
    fault_events: int = 0
    fault_retries: int = 0
    fault_recovery_s: float = 0.0

    @property
    def total_s(self) -> float:
        """Step I + Step II service time (excludes queueing/mounts)."""
        return self.step1_s + self.step2_s


class AnalyticalEstimator:
    """Profiles from the planner's cost breakdown (Section 4 formulas)."""

    name = "analytical"

    def profile(self, job: "AdmittedJob") -> JobProfile:
        """Read Step I/II off the admitted plan's ranked breakdown."""
        breakdown = job.breakdown
        return JobProfile(
            step1_s=breakdown.step1_s,
            step2_s=breakdown.step2_s,
            tape_step2=method_by_symbol(job.symbol).tape_step2,
        )


class SimulatedEstimator:
    """Profiles measured by simulating each unique job shape once.

    With a fault plan the simulation runs under injection + retry, so
    profiles include recovery time.  Results are memoized on the job
    shape (method, sizes, budgets): a workload of n jobs over k distinct
    shapes costs k simulations.
    """

    name = "simulated"

    def __init__(
        self,
        fault_plan: "FaultPlan | None" = None,
        retry_policy: "RetryPolicy | None" = None,
    ):
        self.fault_plan = fault_plan
        self.retry_policy = retry_policy
        self._memo: dict[tuple, JobProfile] = {}

    def profile(self, job: "AdmittedJob") -> JobProfile:
        """Simulate (or recall) the chosen method on the job's spec."""
        key = (
            job.symbol,
            job.request.r_mb,
            job.request.s_mb,
            job.spec.memory_blocks,
            job.spec.disk_blocks,
        )
        cached = self._memo.get(key)
        if cached is not None:
            return cached

        spec = job.spec
        if self.fault_plan is not None:
            spec = dataclasses.replace(
                spec, fault_plan=self.fault_plan, retry_policy=self.retry_policy
            )
        method = method_by_symbol(job.symbol)
        stats = method.run(spec)
        profile = JobProfile(
            step1_s=stats.step1_s,
            # Charge everything past Step I to the Step II window so the
            # profile's total equals the measured response time even when
            # retries stretched the run.
            step2_s=stats.response_s - stats.step1_s,
            tape_step2=method.tape_step2,
            fault_events=stats.fault_events,
            fault_retries=stats.fault_retries,
            fault_recovery_s=stats.fault_recovery_s,
        )
        self._memo[key] = profile
        return profile
