"""Join specification and result statistics.

A :class:`JoinSpec` bundles everything Section 3's system model
parameterizes: the two tape relations, the memory budget ``M``, the disk
budget ``D``, the device speeds and the scratch tape allowances.  A
:class:`JoinStats` is what one simulated join returns: the response time
and its phase breakdown, the traffic counters behind Figures 6–7, and the
verified join output.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.relational import join_core
from repro.relational.join_core import JoinResult
from repro.relational.relation import Relation
from repro.storage.block import BlockSpec
from repro.storage.disk import DiskParameters
from repro.storage.tape import TapeDriveParameters

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.faults.plan import FaultPlan
    from repro.faults.policy import RetryPolicy
    from repro.hsm.cache import PartitionCache
    from repro.obs.recorder import JoinObserver


class InfeasibleJoinError(RuntimeError):
    """Raised when a join method cannot run within the given resources."""


class JoinVerificationError(AssertionError):
    """A method produced a different result than the reference join."""


@dataclasses.dataclass
class JoinSpec:
    """Inputs and resource budgets for one tertiary join.

    Notation follows Table 1 of the paper: ``memory_blocks`` is M,
    ``disk_blocks`` is D (total over ``n_disks``), and the scratch
    allowances are T_R and T_S.  ``None`` scratch means "ample" (sized to
    |S|, enough for every method); pass explicit values to verify the
    scratch column of Table 2.  X_D, X_T and the optimum join time are
    ``SystemParameters.from_spec``'s.
    """

    relation_r: Relation
    relation_s: Relation
    memory_blocks: float
    disk_blocks: float
    n_disks: int = 2
    scratch_r_blocks: float | None = None
    scratch_s_blocks: float | None = None
    disk_params: DiskParameters = dataclasses.field(default_factory=DiskParameters)
    tape_params_r: TapeDriveParameters = dataclasses.field(default_factory=TapeDriveParameters)
    tape_params_s: TapeDriveParameters = dataclasses.field(default_factory=TapeDriveParameters)
    n_buses: int = 2
    bus_bandwidth_mb_s: float = 10.0
    #: Record per-device busy intervals, queue depths, buffer and memory
    #: occupancy (the Figure 4 series) and phase spans into a
    #: :class:`~repro.obs.recorder.JoinObserver` (``repro.obs``).
    #: Purely observational: a traced run's event schedule — and every
    #: reported statistic — is identical to an untraced one.
    trace_devices: bool = False
    #: Optional fault injection (``repro.faults``).  None keeps the
    #: original fault-free devices; a plan — even one with all rates
    #: zero — installs the guarded device paths.
    fault_plan: "FaultPlan | None" = None
    #: Recovery policy for injected faults (None = RetryPolicy defaults).
    retry_policy: "RetryPolicy | None" = None
    #: Optional cross-join partition cache (``repro.hsm``).  None keeps
    #: the original single-join behaviour; a cache lets Grace-Hash
    #: Step I skip the tape read + partition write when this relation's
    #: partition is already disk-resident, and populate the cache as
    #: a side effect when it is not.
    partition_cache: "PartitionCache | None" = None

    def __post_init__(self):
        if self.relation_r.spec != self.relation_s.spec:
            raise ValueError("R and S must share a block geometry")
        if self.relation_r.n_blocks > self.relation_s.n_blocks + 1e-9:
            raise ValueError(
                "the paper defines R as the smaller relation: "
                f"|R|={self.relation_r.n_blocks:.1f} > |S|={self.relation_s.n_blocks:.1f}"
            )
        if not self.memory_blocks > 0:
            raise ValueError("memory budget M must be positive")
        if self.memory_blocks > self.relation_r.n_blocks + 1e-9:
            raise ValueError(
                "the system model assumes M < |R| "
                f"(M={self.memory_blocks}, |R|={self.relation_r.n_blocks:.1f})"
            )
        if not self.disk_blocks > 0:
            raise ValueError("disk budget D must be positive")
        if self.n_disks < 1:
            raise ValueError("need at least one disk")

    # -- model quantities (Table 1) ------------------------------------------

    @property
    def block_spec(self) -> BlockSpec:
        """Block geometry shared by both relations."""
        return self.relation_r.spec

    @property
    def size_r_blocks(self) -> float:
        """|R| in blocks."""
        return self.relation_r.n_blocks

    @property
    def size_s_blocks(self) -> float:
        """|S| in blocks."""
        return self.relation_s.n_blocks

    def effective_scratch_r(self) -> float:
        """T_R: scratch blocks available on the R volume."""
        if self.scratch_r_blocks is None:
            return self.size_s_blocks + 1.0
        return self.scratch_r_blocks

    def effective_scratch_s(self) -> float:
        """T_S: scratch blocks available on the S volume."""
        if self.scratch_s_blocks is None:
            return self.size_s_blocks + 1.0
        return self.scratch_s_blocks


@dataclasses.dataclass
class JoinStats:
    """Everything one simulated join reports."""

    method: str
    symbol: str
    response_s: float
    step1_s: float
    step2_s: float
    iterations: int
    r_scans: float
    #: Buckets joined through the spill path (R bucket larger than its
    #: memory share — skewed keys; 0 under the paper's uniform data).
    overflow_buckets: int
    disk_read_blocks: float
    disk_write_blocks: float
    tape_r_read_blocks: float
    tape_r_write_blocks: float
    tape_s_read_blocks: float
    tape_s_write_blocks: float
    tape_repositions: int
    output: JoinResult
    peak_memory_blocks: float
    peak_disk_blocks: float
    scratch_used_r_blocks: float
    scratch_used_s_blocks: float
    optimum_join_s: float
    bare_read_s: float
    #: Injected faults that fired (errors, stalls, bus glitches).
    fault_events: int = 0
    #: Failed device operations recovered by retry.
    fault_retries: int = 0
    #: Simulated seconds spent on failed attempts, detection and backoff.
    fault_recovery_s: float = 0.0
    #: Simulated seconds of pure fault latency (stalls, bus glitches).
    fault_delay_s: float = 0.0
    #: Checkpointed Step II units restarted after a media error.
    bucket_restarts: int = 0
    #: Simulated seconds of unit work discarded by those restarts.
    restart_lost_s: float = 0.0
    #: Partition-cache lookups that found the R partition disk-resident
    #: (``repro.hsm``; 0 on cache-less runs).
    cache_hits: int = 0
    #: Partition-cache lookups that fell through to the tape read.
    cache_misses: int = 0
    #: Tape blocks whose read was avoided by cache hits.
    cache_saved_blocks: float = 0.0
    #: Simulated seconds of Step I avoided by cache hits.
    cache_saved_s: float = 0.0
    #: Chunks the disk array stored (bucket fragments, staged copies):
    #: a program counter of how much per-chunk bookkeeping the run did,
    #: not a simulated quantity, so it is neither serialized nor compared.
    chunks_placed: int = dataclasses.field(default=0, compare=False)
    #: Data-plane program counters, neither serialized nor compared, like
    #: ``chunks_placed``: held key sets grouped for probing (a
    #: :class:`~repro.relational.join_core.BuildSide` each), probes of
    #: streamed keys against them, and the keys those probes carried.
    builds: int = dataclasses.field(default=0, compare=False)
    probes: int = dataclasses.field(default=0, compare=False)
    probed_keys: int = dataclasses.field(default=0, compare=False)
    #: Compact derived metrics from the observability layer (device
    #: utilization, overlap fractions, queue depths) — present only when
    #: the run was traced; never the raw trace itself.
    obs_summary: dict | None = None
    #: The full :class:`~repro.obs.recorder.JoinObserver` (raw busy
    #: intervals, time series, counters and spans) for in-process export;
    #: it is never serialized.
    observer: "JoinObserver | None" = None

    def verify(self, spec: JoinSpec) -> None:
        """Raise :class:`JoinVerificationError` unless :attr:`output` is the
        in-memory reference join of ``spec``'s relations."""
        expected = join_core.reference_join(spec.relation_r, spec.relation_s)
        if self.output != expected:
            raise JoinVerificationError(
                f"{self.symbol} produced {self.output} but the reference join is {expected}"
            )

    @property
    def disk_traffic_blocks(self) -> float:
        """Total disk blocks moved (the y-axis of Figure 7)."""
        return self.disk_read_blocks + self.disk_write_blocks

    @property
    def relative_cost(self) -> float:
        """Response time over bare read time of S and R (Table 3 metric)."""
        return self.response_s / self.bare_read_s

    @property
    def join_overhead(self) -> float:
        """Relative overhead versus the optimum join time (Figure 9 metric).

        0.30 means the join took 30 % longer than just reading S from tape.
        """
        return self.response_s / self.optimum_join_s - 1.0

    def disk_traffic_mb(self, spec: BlockSpec) -> float:
        """Disk traffic in MB, as Figure 7 plots it."""
        return spec.mb_from_blocks(self.disk_traffic_blocks)


#: Tolerance of :func:`scan_bounds`, in blocks.
_SCAN_EPS = 1e-9


def scan_bounds(
    start_block: float, n_blocks: float, chunk_blocks: float, reverse: bool = False
) -> list[tuple[float, float]]:
    """The ``(start, n_blocks)`` pieces of the ``n_blocks`` range from
    ``start_block``, at most ``chunk_blocks`` each, in scan order (back
    to front with ``reverse``).

    The one walk over a block range: every scan, Step II iteration and
    rescan of the methods iterates it, and the cost model's counts are
    its length.
    """
    if chunk_blocks <= 0:
        raise ValueError(f"chunk_blocks must be positive, got {chunk_blocks}")
    # A range within the tolerance holds no piece (floating-point sums of
    # tuple-aligned pieces can leave a remainder that small): it is empty
    # in both modes.
    bounds: list[tuple[float, float]] = []
    offset = 0.0
    while offset < n_blocks - _SCAN_EPS:
        step = min(chunk_blocks, n_blocks - offset)
        bounds.append((start_block + offset, step))
        offset += step
    if reverse:
        bounds.reverse()
    return bounds
