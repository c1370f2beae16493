"""Retry policies: how much recovery effort a failed device op is worth.

All delays are *simulated* seconds — backing off charges the simulation
clock via ``sim.timeout``, so recovery time shows up in response times
and in the :class:`~repro.core.spec.JoinStats` recovery counters, exactly
like any other I/O cost.
"""

from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class RetryPolicy:
    """Bounded retries with exponential backoff and per-device budgets."""

    #: Retries per operation after the initial attempt (0 = fail fast).
    max_retries: int = 4
    #: First backoff pause, simulated seconds.
    backoff_s: float = 0.5
    #: Multiplier applied per further attempt.
    backoff_factor: float = 2.0
    #: Ceiling on one backoff pause, simulated seconds.
    max_backoff_s: float = 30.0
    #: Total errors one device may produce before it is deemed dead
    #: (None = unlimited).  Exceeding it aborts the join.
    device_error_budget: int | None = None

    def __post_init__(self):
        if self.max_retries < 0:
            raise ValueError(f"max_retries must be >= 0, got {self.max_retries}")
        if self.backoff_s < 0 or self.max_backoff_s < 0:
            raise ValueError("backoff delays must be non-negative")
        if self.backoff_factor < 1.0:
            raise ValueError(
                f"backoff_factor must be >= 1, got {self.backoff_factor}"
            )
        if self.device_error_budget is not None and self.device_error_budget < 1:
            raise ValueError(
                f"device_error_budget must be >= 1, got {self.device_error_budget}"
            )

    def backoff_for(self, attempt: int) -> float:
        """Backoff pause before retry number ``attempt`` (0-based)."""
        return min(self.backoff_s * self.backoff_factor**attempt, self.max_backoff_s)
