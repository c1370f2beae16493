"""Deterministic fault injection and recovery for tertiary joins.

The paper's system model (Section 3) assumes error-free devices; real
tertiary storage is the least reliable tier in the hierarchy.  This
package adds a seeded, serializable fault layer threaded through the
storage devices, plus the recovery machinery that keeps joins and sweeps
alive when faults fire:

* :class:`~repro.faults.plan.FaultPlan` — what to inject (rates,
  magnitudes, a seed);
* :class:`~repro.faults.policy.RetryPolicy` — bounded retries,
  exponential backoff in simulated seconds, per-device error budgets;
* :class:`FaultInjector` — the per-join runtime: seeded per-device
  streams, the guarded-transfer retry loop, fault counters;
* :class:`JoinCheckpoint` / :func:`run_unit` — per-bucket
  checkpoint/restart for the Grace Hash methods;
* the typed exceptions of :mod:`repro.faults.errors`.

With no plan installed — or a plan whose rates are all zero — the layer
is provably inert: every artifact stays byte-identical to a fault-free
build.  See ``docs/faults.md``.
"""

from repro.faults.checkpoint import MAX_UNIT_RESTARTS, JoinCheckpoint, run_unit
from repro.faults.errors import (
    DeviceFault,
    DiskTransientError,
    ErrorBudgetExceededError,
    MediaError,
    RetryExhaustedError,
    TapeSoftReadError,
    TapeWriteError,
    UnitRestartLimitError,
)
from repro.faults.injector import FaultInjector, FaultStats
from repro.faults.plan import OP_KINDS

__all__ = [
    "DeviceFault",
    "DiskTransientError",
    "ErrorBudgetExceededError",
    "FaultInjector",
    "FaultStats",
    "JoinCheckpoint",
    "MAX_UNIT_RESTARTS",
    "MediaError",
    "OP_KINDS",
    "RetryExhaustedError",
    "TapeSoftReadError",
    "TapeWriteError",
    "UnitRestartLimitError",
    "run_unit",
]
