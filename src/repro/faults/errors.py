"""Typed exceptions raised by the fault-injection layer.

The hierarchy encodes what a join method may do about a failure:

* :class:`DeviceFault` subclasses are the raw, per-operation faults a
  device surfaces (a tape soft read error, a transient disk I/O error).
  They are normally consumed by the retry loop and never escape it.
* :class:`MediaError` subclasses are *recoverable at the join level*: a
  checkpointed Grace Hash join catches them and restarts the failed
  bucket from its last completed unit of work.
* Everything else (:class:`ErrorBudgetExceededError`,
  :class:`UnitRestartLimitError`) is terminal for the join: restarting a
  bucket cannot help when the device itself is deemed broken or the
  bucket keeps failing.
"""

from __future__ import annotations


class DeviceFault(RuntimeError):
    """One injected fault on one device operation."""

    def __init__(self, message: str, device: str, kind: str):
        super().__init__(message)
        self.device = device
        self.kind = kind


class TapeSoftReadError(DeviceFault):
    """A tape drive failed to deliver a readable block (soft error)."""


class TapeWriteError(DeviceFault):
    """A tape drive failed to commit an appended block."""


class DiskTransientError(DeviceFault):
    """A disk I/O failed transiently (bus reset, recovered-with-loss)."""


class MediaError(RuntimeError):
    """A device operation failed permanently; the join may restart the
    enclosing unit of work (bucket) from its last checkpoint."""


class RetryExhaustedError(MediaError):
    """The retry policy gave up on one device operation.

    Carries the final :class:`DeviceFault` as ``__cause__``.
    """

    def __init__(self, message: str, device: str, kind: str, attempts: int):
        super().__init__(message)
        self.device = device
        self.kind = kind
        self.attempts = attempts


class ErrorBudgetExceededError(RuntimeError):
    """A device exceeded its per-device error budget and is deemed dead.

    Deliberately *not* a :class:`MediaError`: restarting a bucket against
    a broken device would loop forever, so this terminates the join.
    """

    def __init__(self, message: str, device: str, errors: int, budget: int):
        super().__init__(message)
        self.device = device
        self.errors = errors
        self.budget = budget


class UnitRestartLimitError(RuntimeError):
    """One checkpointed unit of work failed more times than the restart
    limit allows; the join gives up rather than loop."""
