"""Main-memory budget accounting.

The system model allocates a fixed ``M`` blocks of main memory to the join
(Section 3.1).  Every join method draws its working buffers from a
:class:`MemoryManager`; exceeding the budget raises immediately, which is
how the memory column of Table 2 is enforced rather than merely documented.
Memory operations cost no simulated time — the paper's cost model charges
I/O only.
"""

from __future__ import annotations

import contextlib
import typing


class MemoryBudgetError(RuntimeError):
    """Raised when an allocation would exceed the M-block budget."""


class MemoryManager:
    """Ledger of the join's main-memory blocks."""

    def __init__(self, budget_blocks: float):
        if not budget_blocks > 0:
            raise ValueError(f"memory budget must be positive, got {budget_blocks}")
        self.budget_blocks = float(budget_blocks)
        self.used_blocks = 0.0
        self.peak_used_blocks = 0.0
        #: Optional observation callback, called with the new
        #: ``used_blocks`` after every take/give.  The manager has no
        #: simulator reference, so timestamping is the caller's business
        #: (``repro.core.environment`` wires a sim-clocked recorder).
        self.on_change: typing.Callable[[float], None] | None = None

    @property
    def free_blocks(self) -> float:
        """Unallocated budget."""
        return self.budget_blocks - self.used_blocks

    def take(self, n_blocks: float, purpose: str = "") -> float:
        """Allocate ``n_blocks``; raises :class:`MemoryBudgetError` if over."""
        if not n_blocks >= 0:
            raise ValueError(f"cannot take negative or NaN memory: {n_blocks}")
        if self.used_blocks + n_blocks > self.budget_blocks + 1e-9:
            label = f" for {purpose}" if purpose else ""
            raise MemoryBudgetError(
                f"allocation of {n_blocks:.2f} blocks{label} exceeds memory "
                f"budget ({self.used_blocks:.2f}/{self.budget_blocks:.2f} in use)"
            )
        self.used_blocks += n_blocks
        self.peak_used_blocks = max(self.peak_used_blocks, self.used_blocks)
        if self.on_change is not None:
            self.on_change(self.used_blocks)
        return n_blocks

    def give(self, n_blocks: float) -> None:
        """Return ``n_blocks`` to the budget."""
        if not n_blocks >= 0:
            raise ValueError(f"cannot give negative or NaN memory: {n_blocks}")
        if n_blocks > self.used_blocks + 1e-9:
            raise ValueError(
                f"returning {n_blocks:.2f} blocks but only "
                f"{self.used_blocks:.2f} are allocated"
            )
        self.used_blocks -= n_blocks
        if self.on_change is not None:
            self.on_change(self.used_blocks)

    @contextlib.contextmanager
    def hold(self, n_blocks: float, purpose: str = ""):
        """Context manager pinning ``n_blocks`` for the duration of a scope."""
        self.take(n_blocks, purpose)
        try:
            yield
        finally:
            self.give(n_blocks)
