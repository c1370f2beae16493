"""Service requests and shared-hardware configuration.

A :class:`JoinRequest` names what a client wants joined — the dimension
(R) and fact (S) tape volumes with their paper-scale sizes in MB — plus
service constraints (deadline, arrival).  A
:class:`ServiceConfig` describes the hardware every request competes
for: the two tape drives' model, the disk array and memory budgets, and
the media exchange latency charged by the library robot.

Both are plain frozen dataclasses: ``to_dict`` writes them into a sweep
payload and :func:`repro.sweep.serialize.rebuild` reads them back, so
service workloads can travel through the sweep engine's
content-addressed cache (see ``repro.sweep.tasks.service_task``).
"""

from __future__ import annotations

import dataclasses
import math

from repro.experiments.config import BASE_TAPE, DISK_1996, ExperimentScale
from repro.hsm.cache import CacheConfig
from repro.storage.disk import DiskParameters
from repro.storage.tape import TapeDriveParameters


def _positive_finite(value: float) -> bool:
    """False for zero, negative, NaN and infinite sizes."""
    return value > 0 and math.isfinite(value)


@dataclasses.dataclass(frozen=True)
class JoinRequest:
    """One queued join: tape volumes, paper-scale sizes, constraints.

    Sizes are in *paper MB* — the service's :class:`ServiceConfig.scale`
    shrinks them exactly the way the experiment drivers do, so a request
    written against the paper's geometry runs in seconds at scale 0.05.
    ``r_volume`` names the cartridge holding R; requests sharing a
    dimension tape MUST use the same ``r_volume`` *and* ``r_mb`` (one
    cartridge holds one relation).  Volume names default to
    ``<name>-R`` / ``<name>-S`` (private cartridges).
    """

    name: str
    r_mb: float
    s_mb: float
    r_volume: str | None = None
    s_volume: str | None = None
    memory_mb: float | None = None
    disk_mb: float | None = None
    deadline_s: float | None = None
    arrival_s: float = 0.0
    method: str | None = None

    def __post_init__(self):
        if not self.name:
            raise ValueError("a join request needs a name")
        if not all(_positive_finite(mb) for mb in (self.r_mb, self.s_mb)):
            raise ValueError(
                f"relation sizes must be positive and finite ({self.name})"
            )
        if self.r_mb > self.s_mb:
            raise ValueError(
                f"request {self.name!r}: |R| must not exceed |S| "
                f"({self.r_mb} MB > {self.s_mb} MB); swap the operands"
            )
        if not (self.arrival_s >= 0 and math.isfinite(self.arrival_s)):
            raise ValueError(
                f"request {self.name!r}: arrival must be finite and >= 0"
            )
        if self.deadline_s is not None and not self.deadline_s > 0:
            raise ValueError(f"request {self.name!r}: deadline must be positive")

    @property
    def volume_r(self) -> str:
        """The cartridge holding R (defaults to a private one)."""
        return self.r_volume or f"{self.name}-R"

    @property
    def volume_s(self) -> str:
        """The cartridge holding S (defaults to a private one)."""
        return self.s_volume or f"{self.name}-S"

    def to_dict(self) -> dict:
        """JSON-serializable form (drops defaulted Nones for stable keys)."""
        payload: dict = {"name": self.name, "r_mb": self.r_mb, "s_mb": self.s_mb}
        for field in (
            "r_volume",
            "s_volume",
            "memory_mb",
            "disk_mb",
            "deadline_s",
            "method",
        ):
            value = getattr(self, field)
            if value is not None:
                payload[field] = value
        if self.arrival_s:
            payload["arrival_s"] = self.arrival_s
        return payload


@dataclasses.dataclass(frozen=True)
class ServiceConfig:
    """Shared hardware and admission defaults for one service run.

    ``memory_mb``/``disk_mb`` are per-job defaults (a request may
    override them); ``memory_total_mb``/``disk_total_mb`` bound the pool
    the broker leases from and default to twice the per-job budget, so
    two jobs' disk-resident phases can overlap.  Jobs whose needs exceed
    the pool are rejected at admission — granting them would deadlock
    the broker.  Each job's memory is clamped to the experiment drivers'
    Grace Hash floor (``1.05 * sqrt(|R|)`` blocks) when scaling shrinks
    it below feasibility, through the same
    :func:`~repro.core.requirements.clamp_gh_memory`.
    """

    memory_mb: float = 16.0
    disk_mb: float = 100.0
    memory_total_mb: float | None = None
    disk_total_mb: float | None = None
    exchange_s: float = 30.0
    scale: ExperimentScale = dataclasses.field(default_factory=ExperimentScale)
    tape: TapeDriveParameters = BASE_TAPE
    disk_params: DiskParameters = DISK_1996
    #: Optional cross-job partition cache (``repro.hsm``).  None — the
    #: default — keeps the service byte-identical to builds without the
    #: HSM layer; a :class:`~repro.hsm.cache.CacheConfig` reserves a
    #: dedicated disk region (beyond the broker's per-job pool, so cached
    #: partitions never starve admissions) in which Grace-Hash Step I
    #: output is kept across jobs and across ``run()`` calls.
    cache: CacheConfig | None = None

    def __post_init__(self):
        if not (_positive_finite(self.memory_mb) and _positive_finite(self.disk_mb)):
            raise ValueError(
                "per-job memory and disk budgets must be positive and finite"
            )
        for pool in (self.memory_total_mb, self.disk_total_mb):
            if pool is not None and not _positive_finite(pool):
                raise ValueError(
                    f"memory and disk pools must be positive and finite, got {pool}"
                )
        if not (self.exchange_s >= 0 and math.isfinite(self.exchange_s)):
            raise ValueError("exchange time must be finite and non-negative")

    @property
    def pool_memory_mb(self) -> float:
        """Total memory the broker leases from (paper MB)."""
        return self.memory_total_mb or 2.0 * self.memory_mb

    @property
    def pool_disk_mb(self) -> float:
        """Total disk the broker leases from (paper MB)."""
        return self.disk_total_mb or 2.0 * self.disk_mb

    def to_dict(self) -> dict:
        """JSON-serializable form, stable under cache fingerprinting."""
        payload = {
            "memory_mb": self.memory_mb,
            "disk_mb": self.disk_mb,
            "memory_total_mb": self.pool_memory_mb,
            "disk_total_mb": self.pool_disk_mb,
            "exchange_s": self.exchange_s,
            "scale": dataclasses.asdict(self.scale),
            "tape": dataclasses.asdict(self.tape),
            "disk_params": dataclasses.asdict(self.disk_params),
        }
        # Present only when a cache is configured, so cache-less service
        # fingerprints (and every pre-HSM sweep cache entry) are stable.
        if self.cache is not None:
            payload["cache"] = dataclasses.asdict(self.cache)
        return payload
