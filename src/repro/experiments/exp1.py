"""Experiment 1: large S, large R — Table 3 and Figure 4 (Section 7).

Four CTT-GH joins with |S| from 1 000 to 10 000 MB, |R| half of |S| (Join
IV: 2 500 MB), D = |R|/5 and M = 16 MB.  The table reports the bare read
time of both tapes, Step I (hashing R to tape), the total response time
and the relative cost — the paper measured 7.9 → 6.8, falling as the
setup cost amortizes over larger |S|.

Figure 4 plots disk buffer utilization during Step II of Join III: with
interleaved double-buffering, total utilization stays near 100 % while
the even/odd iteration shares form a shark-tooth pattern.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.requirements import clamp_gh_memory
from repro.experiments.config import (
    BASE_TAPE,
    DISK_1996,
    EXPERIMENT1_JOINS,
    Experiment1Join,
    ExperimentScale,
)
from repro.experiments.report import format_table
from repro.sweep.runner import Sweep, SweepRunner
from repro.sweep.serialize import join_stats
from repro.sweep.tasks import SweepTask, join_task

#: The join whose Step II buffer occupancy Figure 4 plots.
FIGURE4_JOIN = EXPERIMENT1_JOINS[2]  # Join III


@dataclasses.dataclass(frozen=True)
class Table3Row:
    """One measured row of Table 3 (times in simulated seconds)."""

    name: str
    s_mb: float
    r_mb: float
    d_mb: float
    bare_read_s: float
    step1_s: float
    total_s: float
    relative_cost: float


@dataclasses.dataclass(frozen=True)
class Table3Result:
    """All measured rows plus the paper's reference values."""

    rows: tuple[Table3Row, ...]
    scale: float

    #: The paper's measured relative costs, for side-by-side comparison.
    PAPER_RELATIVE_COSTS: typing.ClassVar[dict[str, float]] = {
        "Join I": 7.9,
        "Join II": 7.3,
        "Join III": 6.9,
        "Join IV": 6.8,
    }

    def render(self) -> str:
        """Paper-style rendering of Table 3."""
        headers = [
            "", "|S| (MB)", "|R| (MB)", "D (MB)",
            "Read S + R", "Step I", "Steps I + II", "Rel. Cost", "Paper",
        ]
        rows = []
        for row in self.rows:
            rows.append([
                row.name,
                f"{row.s_mb:.0f}",
                f"{row.r_mb:.0f}",
                f"{row.d_mb:.0f}",
                f"{row.bare_read_s:.0f} s",
                f"{row.step1_s:.0f} s",
                f"{row.total_s:.0f} s",
                f"{row.relative_cost:.1f}",
                f"{self.PAPER_RELATIVE_COSTS.get(row.name, float('nan')):.1f}",
            ])
        title = "Table 3: Concurrent Tape-Tape Grace Hash Join"
        if self.scale != 1.0:
            title += f" (sizes scaled by {self.scale:g})"
        return f"{title}\n{format_table(headers, rows)}"

    def to_dict(self) -> dict:
        """JSON-serializable form: measured rows plus the paper's values."""
        return {
            "scale": self.scale,
            "rows": [dataclasses.asdict(row) for row in self.rows],
            "paper_relative_costs": dict(self.PAPER_RELATIVE_COSTS),
        }


def _ctt_gh_task(join: Experiment1Join, scale: ExperimentScale, **options) -> SweepTask:
    """The sweep task of one Experiment 1 join (CTT-GH, M clamped)."""
    return join_task(
        "CTT-GH",
        join.r_mb,
        join.s_mb,
        memory_blocks=clamp_gh_memory(
            scale.blocks(join.m_mb), scale.relation_blocks(join.r_mb)
        ),
        disk_blocks=scale.blocks(join.d_mb),
        tape=BASE_TAPE,
        disk_params=DISK_1996,
        scale=scale,
        **options,
    )


def experiment1_sweep(
    scale: ExperimentScale | None = None,
    joins: typing.Sequence[Experiment1Join] = EXPERIMENT1_JOINS,
    verify: bool = False,
    fault_plan=None,
    retry_policy=None,
) -> Sweep:
    """Table 3's four CTT-GH joins as one sweep.

    Join III runs traced, so its task is the one :func:`figure4_sweep`
    builds and a submission holding both runs it once.
    ``fault_plan``/``retry_policy`` thread fault injection through the
    sweep; a rate-0 plan exercises the guarded device paths and must
    reproduce the fault-free artifact byte for byte (the parity tests
    hold the repo to that).
    """
    scale = scale or ExperimentScale(tuple_bytes=8192)
    tasks = [
        _ctt_gh_task(
            join, scale, trace=join == FIGURE4_JOIN, verify=verify,
            fault_plan=fault_plan, retry_policy=retry_policy,
        )
        for join in joins
    ]

    def assemble(results: list[dict]) -> Table3Result:
        rows = []
        for join, result in zip(joins, results):
            stats = join_stats(result, required=True)
            rows.append(
                Table3Row(
                    name=join.name,
                    s_mb=scale.mb(join.s_mb),
                    r_mb=scale.mb(join.r_mb),
                    d_mb=scale.mb(join.d_mb),
                    bare_read_s=stats.bare_read_s,
                    step1_s=stats.step1_s,
                    total_s=stats.response_s,
                    relative_cost=stats.relative_cost,
                )
            )
        return Table3Result(tuple(rows), scale.scale)

    return Sweep(tasks, assemble)


def run_experiment1(*args, runner: SweepRunner | None = None, **kwargs) -> Table3Result:
    """Run :func:`experiment1_sweep` (same arguments) through ``runner``."""
    return experiment1_sweep(*args, **kwargs).run(runner)


@dataclasses.dataclass(frozen=True)
class Figure4Result:
    """Disk buffer utilization during Step II of one CTT-GH join.

    Utilization is in percent of the S-buffer capacity; samples cover the
    Step II window only.
    """

    times_s: list[float]
    total_pct: list[float]
    even_pct: list[float]
    odd_pct: list[float]
    step2_window_s: tuple[float, float]
    mean_total_pct: float

    def render(self, samples: int = 20) -> str:
        """Compact text rendering (downsampled)."""
        stride = max(1, len(self.times_s) // samples)
        lines = ["Figure 4: disk space utilization (Step II, interleaved buffer)"]
        lines.append(f"{'time (s)':>10s}  {'total %':>8s}  {'even %':>8s}  {'odd %':>8s}")
        for i in range(0, len(self.times_s), stride):
            lines.append(
                f"{self.times_s[i]:10.0f}  {self.total_pct[i]:8.1f}  "
                f"{self.even_pct[i]:8.1f}  {self.odd_pct[i]:8.1f}"
            )
        lines.append(f"time-average total utilization: {self.mean_total_pct:.1f} %")
        return "\n".join(lines)

    def to_dict(self) -> dict:
        """JSON-serializable form of the utilization trace."""
        return {
            "times_s": list(self.times_s),
            "total_pct": list(self.total_pct),
            "even_pct": list(self.even_pct),
            "odd_pct": list(self.odd_pct),
            "step2_window_s": list(self.step2_window_s),
            "mean_total_pct": self.mean_total_pct,
        }


def figure4_sweep(
    scale: ExperimentScale | None = None, join: Experiment1Join | None = None
) -> Sweep:
    """Join III's Step II buffer occupancy (Figure 4) as a one-task sweep.

    The task is a traced ``join`` task: the buffer traces stay in the
    worker and only the derived utilization series comes back (and is
    what the cache stores).
    """
    scale = scale or ExperimentScale(tuple_bytes=8192)

    def assemble(results: list[dict]) -> Figure4Result:
        (result,) = results
        join_stats(result, required=True)  # an infeasible join has no series
        data = result["buffer"]
        return Figure4Result(
            **dict(data, step2_window_s=tuple(data["step2_window_s"]))
        )

    return Sweep([_ctt_gh_task(join or FIGURE4_JOIN, scale, trace=True)], assemble)


def run_figure4(*args, runner: SweepRunner | None = None, **kwargs) -> Figure4Result:
    """Run :func:`figure4_sweep` (same arguments) through ``runner``."""
    return figure4_sweep(*args, **kwargs).run(runner)
