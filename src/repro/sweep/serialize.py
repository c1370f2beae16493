"""Lossless (de)serialization between sweep payloads and domain objects.

Floats survive JSON round-trips exactly (``json`` emits ``repr`` which
round-trips bit-for-bit), so a :class:`JoinStats` reconstructed from a
cache entry renders byte-identical artifacts to a freshly simulated one.
The observer is the one exception: it is not serialized, so cached stats
carry ``observer=None`` (a traced join task caches the derived buffer
series instead).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.spec import InfeasibleJoinError, JoinStats
from repro.relational.join_core import JoinResult
from repro.storage.block import BlockSpec
from repro.storage.disk import DiskParameters
from repro.storage.tape import TapeDriveParameters

if typing.TYPE_CHECKING:  # pragma: no cover - typing only
    # Imported lazily at runtime: repro.experiments pulls in the sweep
    # package, so a module-level import here would be circular.
    from repro.experiments.config import ExperimentScale


def tape_to_dict(params: TapeDriveParameters) -> dict:
    """Plain-dict form of tape drive parameters."""
    return dataclasses.asdict(params)


def tape_from_dict(payload: dict) -> TapeDriveParameters:
    """Rebuild tape drive parameters from their dict form."""
    return TapeDriveParameters(**payload)


def disk_to_dict(params: DiskParameters) -> dict:
    """Plain-dict form of disk parameters."""
    return dataclasses.asdict(params)


def disk_from_dict(payload: dict) -> DiskParameters:
    """Rebuild disk parameters from their dict form."""
    return DiskParameters(**payload)


def scale_to_dict(scale: ExperimentScale) -> dict:
    """Plain-dict form of an experiment scale (block spec nested)."""
    return dataclasses.asdict(scale)


def scale_from_dict(payload: dict) -> ExperimentScale:
    """Rebuild an :class:`ExperimentScale` from its dict form."""
    from repro.experiments.config import ExperimentScale

    fields = dict(payload)
    fields["block_spec"] = BlockSpec(**fields["block_spec"])
    return ExperimentScale(**fields)


def stats_to_dict(stats: JoinStats) -> dict:
    """Serialize a :class:`JoinStats`, leaving out the observer, its
    summary, the partition-cache counters and the program counters."""
    payload = {}
    for field in dataclasses.fields(JoinStats):
        # obs_summary is derived observability data; like the observer
        # it stays out of cache entries so fault-free sweep results keep
        # their original byte-identical form.  The partition-cache
        # counters stay out for the same reason: sweep tasks never carry
        # a live cache (a cached partition would make results depend on
        # task order), so the fields are always zero and serializing
        # them would churn every existing cache entry.  ``chunks_placed``
        # and the data-plane counters count program work, not simulated
        # work, and stay out too.
        if field.name in (
            "obs_summary",
            "observer",
            "chunks_placed",
            "builds",
            "probes",
            "probed_keys",
            "cache_hits",
            "cache_misses",
            "cache_saved_blocks",
            "cache_saved_s",
        ):
            continue
        if field.name == "output":
            payload["output"] = {
                "n_pairs": stats.output.n_pairs,
                "checksum": stats.output.checksum,
            }
            continue
        payload[field.name] = getattr(stats, field.name)
    return payload


def stats_from_dict(payload: dict) -> JoinStats:
    """Rebuild a :class:`JoinStats` (no observer) from its dict form."""
    fields = dict(payload)
    output = fields.pop("output")
    return JoinStats(
        output=JoinResult(int(output["n_pairs"]), int(output["checksum"])),
        **fields,
    )


def join_stats(result: dict, required: bool = False) -> JoinStats | None:
    """Decode a ``join`` task's result: its stats, or None when the join
    was infeasible (raised as :class:`InfeasibleJoinError` if ``required``)."""
    if not result["infeasible"]:
        return stats_from_dict(result["stats"])
    if required:
        raise InfeasibleJoinError(result["error"])
    return None
