"""Experiment 3: large S, small R — Figures 6–11 (Section 9).

|S| = 1 000 MB, |R| = 18 MB, D = 50 MB; main memory swept from 0.1|R| to
0.9|R| for the five disk–tape methods, at three tape speeds (data
compressibility 0 % / 25 % / 50 %).  One sweep yields four figures:

* Figure 6 — disk space requirement versus memory size (measured peaks);
* Figure 7 — total disk I/O traffic versus memory size;
* Figure 8 — response time versus memory size (base tape speed);
* Figures 9/10/11 — relative join overhead at base/slow/fast tape speed.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.spec import JoinStats
from repro.experiments.config import (
    DISK_LIGHTNING,
    EXPERIMENT3_D_MB,
    EXPERIMENT3_M_FRACTIONS,
    EXPERIMENT3_METHODS,
    EXPERIMENT3_R_MB,
    EXPERIMENT3_S_MB,
    TAPE_SPEEDS,
    ExperimentScale,
)
from repro.experiments.report import format_series
from repro.storage.block import BlockSpec
from repro.sweep.runner import Sweep, SweepRunner
from repro.sweep.serialize import join_stats
from repro.sweep.tasks import join_task


@dataclasses.dataclass(frozen=True)
class Experiment3Result:
    """One tape-speed run of Experiment 3 across methods and memory sizes."""

    tape_speed: str
    memory_fractions: tuple[float, ...]
    stats: dict[str, list[JoinStats | None]]  # method -> per-fraction stats
    r_mb: float
    d_mb: float

    def _series(
        self, extract: typing.Callable[[JoinStats], float]
    ) -> dict[str, list[float | None]]:
        return {
            symbol: [None if st is None else extract(st) for st in per_method]
            for symbol, per_method in self.stats.items()
        }

    def figure6_disk_space_mb(self, block_spec) -> dict[str, list[float | None]]:
        """Peak disk space used, in MB (Figure 6)."""
        return self._series(lambda st: block_spec.mb_from_blocks(st.peak_disk_blocks))

    def figure7_disk_traffic_mb(self, block_spec) -> dict[str, list[float | None]]:
        """Total disk traffic, in MB (Figure 7)."""
        return self._series(lambda st: st.disk_traffic_mb(block_spec))

    def figure8_response_s(self) -> dict[str, list[float | None]]:
        """Response time in seconds (Figure 8)."""
        return self._series(lambda st: st.response_s)

    def overhead_pct(self) -> dict[str, list[float | None]]:
        """Relative join overhead in percent (Figures 9/10/11)."""
        return self._series(lambda st: 100.0 * st.join_overhead)

    def render(self, block_spec: BlockSpec = BlockSpec()) -> str:
        """All four figure tables for this tape speed."""
        xs = list(self.memory_fractions)
        parts = [
            f"Experiment 3 ({self.tape_speed} tape): |R|={self.r_mb:g} MB, D={self.d_mb:g} MB",
            "Figure 6: disk space requirement (MB)",
            format_series("M/|R|", xs, self.figure6_disk_space_mb(block_spec), "{:.1f}"),
            "Figure 7: disk I/O traffic (MB)",
            format_series("M/|R|", xs, self.figure7_disk_traffic_mb(block_spec), "{:.0f}"),
            "Figure 8: response time (s)",
            format_series("M/|R|", xs, self.figure8_response_s(), "{:.0f}"),
            "Relative join overhead (%) "
            "(Figure 9 base / Figure 10 slow / Figure 11 fast)",
            format_series("M/|R|", xs, self.overhead_pct(), "{:.0f}"),
        ]
        return "\n".join(parts)

    def to_dict(self, block_spec: BlockSpec = BlockSpec()) -> dict:
        """JSON-serializable form of all four figure series."""
        return {
            "tape_speed": self.tape_speed,
            "r_mb": self.r_mb,
            "d_mb": self.d_mb,
            "memory_fractions": list(self.memory_fractions),
            "figure6_disk_space_mb": self.figure6_disk_space_mb(block_spec),
            "figure7_disk_traffic_mb": self.figure7_disk_traffic_mb(block_spec),
            "figure8_response_s": self.figure8_response_s(),
            "overhead_pct": self.overhead_pct(),
        }


def experiment3_sweep(
    tape_speed: str = "base",
    scale: ExperimentScale | None = None,
    memory_fractions: typing.Sequence[float] = EXPERIMENT3_M_FRACTIONS,
    methods: typing.Sequence[str] = EXPERIMENT3_METHODS,
    s_mb: float = EXPERIMENT3_S_MB,
    r_mb: float = EXPERIMENT3_R_MB,
    d_mb: float = EXPERIMENT3_D_MB,
) -> Sweep:
    """The memory sweep of the disk–tape methods at one tape speed."""
    if tape_speed not in TAPE_SPEEDS:
        known = ", ".join(sorted(TAPE_SPEEDS))
        raise KeyError(f"unknown tape speed {tape_speed!r}; known: {known}")
    scale = scale or ExperimentScale()
    tape = TAPE_SPEEDS[tape_speed]
    r_blocks = scale.relation_blocks(r_mb)
    disk = scale.blocks(d_mb)
    tasks, owners = [], []
    for fraction in memory_fractions:
        memory = fraction * r_blocks
        for symbol in methods:
            tasks.append(
                join_task(
                    symbol, r_mb, s_mb, memory_blocks=memory, disk_blocks=disk,
                    tape=tape, disk_params=DISK_LIGHTNING, scale=scale,
                )
            )
            owners.append(symbol)

    def assemble(results: list[dict]) -> Experiment3Result:
        stats: dict[str, list[JoinStats | None]] = {symbol: [] for symbol in methods}
        for symbol, result in zip(owners, results):
            stats[symbol].append(join_stats(result))
        return Experiment3Result(
            tape_speed, tuple(memory_fractions), stats, scale.mb(r_mb), scale.mb(d_mb)
        )

    return Sweep(tasks, assemble)


def run_experiment3(
    *args, runner: SweepRunner | None = None, **kwargs
) -> Experiment3Result:
    """Run :func:`experiment3_sweep` (same arguments) through ``runner``."""
    return experiment3_sweep(*args, **kwargs).run(runner)
