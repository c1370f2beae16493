"""Experiment 2: large S, medium R — Figure 5 (Section 8).

|S| = 1 000 MB, |R| = 18 MB, M = 0.1|R|; disk space D swept from
0.5|R| to 3|R|.  As D approaches |R| from above, CDT-GH has less and less
room to buffer S and its response time explodes (at D = 20 MB the paper's
R was read 500 times); CTT-GH keeps the whole of D for S buffering and
stays nearly flat, winning whenever D ≲ |R|.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.core.requirements import clamp_gh_memory
from repro.experiments.config import (
    BASE_TAPE,
    DISK_1996,
    EXPERIMENT2_D_FRACTIONS,
    EXPERIMENT2_R_MB,
    EXPERIMENT2_S_MB,
    ExperimentScale,
    ScaleTooSmallError,
)
from repro.experiments.report import format_series
from repro.sweep.runner import Sweep, SweepRunner
from repro.sweep.serialize import join_stats
from repro.sweep.tasks import join_task


@dataclasses.dataclass(frozen=True)
class Figure5Point:
    """One (D, method) measurement."""

    d_mb: float
    response_s: float | None
    r_scans: float | None


@dataclasses.dataclass(frozen=True)
class Figure5Result:
    """Figure 5: response time of CDT-GH and CTT-GH versus disk space."""

    d_mb_values: tuple[float, ...]
    series: dict[str, list[Figure5Point]]
    r_mb: float

    def response_series(self) -> dict[str, list[float | None]]:
        """Response-time series keyed by method (None = infeasible)."""
        return {
            symbol: [point.response_s for point in points]
            for symbol, points in self.series.items()
        }

    def render(self) -> str:
        """Paper-style rendering of Figure 5."""
        title = "Figure 5: impact of disk space on CDT-GH and CTT-GH (seconds)"
        body = format_series(
            "D (MB)", list(self.d_mb_values), self.response_series(), "{:.0f}"
        )
        return f"{title}\n{body}"

    def to_dict(self) -> dict:
        """JSON-serializable form of the Figure 5 series."""
        return {
            "r_mb": self.r_mb,
            "d_mb_values": list(self.d_mb_values),
            "series": {
                symbol: [dataclasses.asdict(point) for point in points]
                for symbol, points in self.series.items()
            },
        }


def experiment2_sweep(
    scale: ExperimentScale | None = None,
    d_fractions: typing.Sequence[float] = EXPERIMENT2_D_FRACTIONS,
    s_mb: float = EXPERIMENT2_S_MB,
    r_mb: float = EXPERIMENT2_R_MB,
    methods: typing.Sequence[str] = ("CDT-GH", "CTT-GH"),
) -> Sweep:
    """The D sweep of the two hash methods (Figure 5); a scale too small
    for Grace Hash's memory floor raises :class:`ScaleTooSmallError`."""
    scale = scale or ExperimentScale()
    r_blocks = scale.relation_blocks(r_mb)
    # M = 0.1|R| as in the paper, clamped to Grace Hash's sqrt(|R|) floor
    # (relation sizes scale linearly, the floor does not).  0.1|R| is below
    # |R| - 1 whenever it is above the floor, so only the floor can bite.
    memory = clamp_gh_memory(0.1 * r_blocks, r_blocks)
    if memory > r_blocks:
        raise ScaleTooSmallError(
            f"fig5: scale {scale.scale:g} is too small, the smallest usable "
            f"scale is {_min_scale(scale, r_mb):g} (below it the memory "
            "floor 1.05*sqrt(|R|) exceeds |R|)"
        )
    tasks, points = [], []
    d_values = []
    for fraction in d_fractions:
        d_mb = scale.mb(r_mb) * fraction
        d_values.append(d_mb)
        disk = r_blocks * fraction
        for symbol in methods:
            tasks.append(
                join_task(
                    symbol, r_mb, s_mb, memory_blocks=memory, disk_blocks=disk,
                    tape=BASE_TAPE, disk_params=DISK_1996, scale=scale,
                )
            )
            points.append((d_mb, symbol))

    def assemble(results: list[dict]) -> Figure5Result:
        series: dict[str, list[Figure5Point]] = {symbol: [] for symbol in methods}
        for (d_mb, symbol), result in zip(points, results):
            stats = join_stats(result)
            series[symbol].append(
                Figure5Point(d_mb, None, None)
                if stats is None
                else Figure5Point(d_mb, stats.response_s, stats.r_scans)
            )
        return Figure5Result(tuple(d_values), series, scale.mb(r_mb))

    return Sweep(tasks, assemble)


def run_experiment2(*args, runner: SweepRunner | None = None, **kwargs) -> Figure5Result:
    """Run :func:`experiment2_sweep` (same arguments) through ``runner``."""
    return experiment2_sweep(*args, **kwargs).run(runner)


def _min_scale(scale: ExperimentScale, r_mb: float) -> float:
    """Smallest scale factor whose |R| holds the memory floor, rounded up.

    M = 1.05 sqrt(|R|) fits under |R| once |R| >= 1.05**2 blocks, and
    :meth:`ExperimentScale.relations` rounds |R| to whole tuples.
    """
    per_block = scale.block_spec.tuples_per_block(scale.tuple_bytes)
    tuples_needed = math.ceil(1.05**2 * per_block)
    tuples_per_unit_scale = scale.blocks(r_mb) / scale.scale * per_block
    return math.ceil((tuples_needed - 0.5) / tuples_per_unit_scale * 1e4) / 1e4
