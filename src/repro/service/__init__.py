"""Multi-join scheduling service for a shared tape library.

The paper models one ad hoc join on a dedicated two-drive system
(Section 3).  This package serves a *queue* of joins against shared
hardware: a :class:`~repro.service.broker.ResourceBroker` leases the two
tape drives of a :class:`~repro.storage.hierarchy.StorageSystem`, disk
blocks and memory to jobs (media exchanges charged via the
library robot); pluggable :mod:`~repro.service.policies` order the
batch (FIFO, shortest-job-first on planner estimates, tape-affinity
and cache-affinity batching); admission enforces Table 2 feasibility per job via
``repro.core.planner``; and disk-based jobs release the R drive after
Step I so the next job's tape read overlaps their disk-resident
Step II — the service-level analogue of the paper's CDT concurrency.

Entry points: :func:`repro.api.run_service` (one call, optionally traced),
:class:`~repro.service.scheduler.JoinService` (submit/run), and the
``exp5`` experiment (``python -m repro.experiments exp5 --policy ...``).
See ``docs/service.md``.
"""

from repro.service.broker import DriveLease, ResourceBroker
from repro.service.estimators import (
    AnalyticalEstimator,
    JobProfile,
    SimulatedEstimator,
)
from repro.service.metrics import SERVICE_SPAN_CATS, JobOutcome, WorkloadReport
from repro.service.policies import (
    POLICIES,
    CacheAffinityPolicy,
    FifoPolicy,
    SchedulingPolicy,
    ShortestJobFirstPolicy,
    TapeAffinityPolicy,
    policy_by_name,
)
from repro.service.requests import JoinRequest, ServiceConfig
from repro.service.scheduler import AdmittedJob, JoinService, run_service

__all__ = [
    "AdmittedJob",
    "AnalyticalEstimator",
    "CacheAffinityPolicy",
    "DriveLease",
    "FifoPolicy",
    "JobOutcome",
    "JobProfile",
    "JoinRequest",
    "JoinService",
    "POLICIES",
    "ResourceBroker",
    "SERVICE_SPAN_CATS",
    "SchedulingPolicy",
    "ServiceConfig",
    "ShortestJobFirstPolicy",
    "SimulatedEstimator",
    "TapeAffinityPolicy",
    "WorkloadReport",
    "policy_by_name",
    "run_service",
]
