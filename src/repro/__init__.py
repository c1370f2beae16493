"""Relational joins for data on tertiary storage.

A production-quality reproduction of Myllymaki & Livny, "Relational Joins
for Data on Tertiary Storage" (UW–Madison CS TR #1331, January 1997;
abridged in Proc. ICDE 1997): seven tape-aware join methods executed
against a discrete-event-simulated storage hierarchy (tape drives, disk
array, SCSI buses), an analytical cost model, and a harness regenerating
every table and figure of the paper's evaluation.

Quick start::

    import repro

    r = repro.uniform_relation("R", size_mb=18, seed=1)
    s = repro.uniform_relation("S", size_mb=100, seed=2)
    spec = repro.JoinSpec(r, s, memory_blocks=18, disk_blocks=500)

    plan = repro.plan_join(spec)           # which method should run?
    stats = repro.method_by_symbol(plan.chosen).run(spec)
    print(plan.chosen, f"{stats.response_s:.0f} simulated seconds,",
          stats.output.n_pairs, "result tuples")

Subpackages:

* :mod:`repro.core` — the seven join methods, planner, requirements.
* :mod:`repro.costmodel` — Section 5.3's analytical response-time model.
* :mod:`repro.simulator` — the discrete-event simulation kernel.
* :mod:`repro.storage` — tape/disk/bus/library device models.
* :mod:`repro.buffering` — Section 4's buffering techniques.
* :mod:`repro.relational` — relations, data generators, join primitives.
* :mod:`repro.experiments` — the paper's Experiments 1–5, figures, and
  the cache-payoff Experiment 6.
* :mod:`repro.service` — the multi-join tape-library scheduler service.
* :mod:`repro.hsm` — the disk-resident partition cache (HSM layer) for
  cross-join tape reuse.
* :mod:`repro.api` — the one-stop facade (``run_join``, ``plan``,
  ``sweep``/``run_sweep``, ``trace``, ``run_service``); everything it
  exports is also re-exported here (``sweep`` as ``run_sweep``).
"""

from repro.core import (
    ALL_METHODS,
    InfeasibleJoinError,
    JoinPlan,
    JoinSpec,
    JoinStats,
    method_by_symbol,
    plan_join,
    symbols,
)
from repro.costmodel import SystemParameters, estimate, estimate_all
from repro.relational import (
    Relation,
    Schema,
    fk_pk_pair,
    reference_join,
    self_join_relation,
    uniform_relation,
    zipf_relation,
)
from repro.storage import BlockSpec, DiskParameters, TapeDriveParameters
from repro import api
# The facade's entry points, re-exported for `repro.run_join(...)`-style
# use.  `api.sweep` is deliberately NOT re-exported here: the name would
# shadow the `repro.sweep` subpackage on the package object — use the
# `run_sweep` alias instead (same callable; see docs/sweep.md).
from repro.api import (
    CacheConfig,
    FaultPlan,
    JoinRequest,
    JoinService,
    PartitionCache,
    RetryPolicy,
    ServiceConfig,
    WorkloadReport,
    plan,
    run_join,
    run_service,
    run_sweep,
    trace,
)

__version__ = "1.0.0"

__all__ = [
    "ALL_METHODS",
    "BlockSpec",
    "CacheConfig",
    "DiskParameters",
    "FaultPlan",
    "InfeasibleJoinError",
    "JoinPlan",
    "JoinRequest",
    "JoinService",
    "JoinSpec",
    "JoinStats",
    "PartitionCache",
    "Relation",
    "RetryPolicy",
    "Schema",
    "ServiceConfig",
    "SystemParameters",
    "TapeDriveParameters",
    "WorkloadReport",
    "__version__",
    "api",
    "estimate",
    "estimate_all",
    "fk_pk_pair",
    "method_by_symbol",
    "plan",
    "plan_join",
    "reference_join",
    "run_join",
    "run_service",
    "run_sweep",
    "self_join_relation",
    "symbols",
    "trace",
    "uniform_relation",
    "zipf_relation",
]
