"""Experiment 4: join robustness under injected device faults.

This experiment has no counterpart in the paper, whose Section 3 system
model assumes error-free devices.  It sweeps a soft-error rate across all
seven join methods on the Experiment 3 frame (|S| = 1000 MB, |R| = 18 MB,
D = 50 MB) with M = 0.5 |R| — a configuration every method can run — and
reports each method's response-time degradation curve relative to its own
fault-free run.

Faults come from a seeded :class:`~repro.faults.plan.FaultPlan`
(:meth:`~repro.faults.plan.FaultPlan.uniform`: tape soft read errors,
drive stalls, transient disk errors and bus glitches all driven by one
rate knob); recovery uses the default
:class:`~repro.faults.policy.RetryPolicy` plus per-bucket checkpoint
restart.  The rate-0 point of each curve is byte-identical to the
fault-free simulation — its task payload carries no fault key at all, so
it even shares sweep-cache fingerprints with the other experiments.
"""

from __future__ import annotations

import dataclasses
import typing

from repro.experiments.config import (
    BASE_TAPE,
    DISK_1996,
    EXPERIMENT3_D_MB,
    EXPERIMENT3_R_MB,
    EXPERIMENT3_S_MB,
    ExperimentScale,
)
from repro.experiments.report import format_series
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.sweep.runner import Sweep, SweepRunner
from repro.sweep.serialize import join_stats
from repro.sweep.tasks import join_task

#: M as a fraction of |R| — mid-range, feasible for all seven methods.
EXPERIMENT4_M_FRACTION = 0.5

#: The full Table 2 method set.
EXPERIMENT4_METHODS: tuple[str, ...] = (
    "DT-NB", "CDT-NB/MB", "CDT-NB/DB", "DT-GH", "CDT-GH", "CTT-GH", "TT-GH",
)


def fault_rates(max_rate: float) -> tuple[float, ...]:
    """The swept soft-error rates: 0 plus three decades up to ``max_rate``."""
    if max_rate < 0:
        raise ValueError(f"fault rate must be non-negative, got {max_rate}")
    if max_rate == 0:
        return (0.0,)
    return (0.0, max_rate / 100.0, max_rate / 10.0, max_rate)


@dataclasses.dataclass(frozen=True)
class Experiment4Point:
    """One (method, rate) measurement."""

    rate: float
    response_s: float | None
    degradation_pct: float | None
    fault_events: int | None
    fault_retries: int | None
    bucket_restarts: int | None
    recovery_s: float | None


@dataclasses.dataclass(frozen=True)
class Experiment4Result:
    """Response-time degradation of every method versus soft-error rate."""

    rates: tuple[float, ...]
    series: dict[str, list[Experiment4Point]]
    fault_seed: int

    def degradation_series(self) -> dict[str, list[float | None]]:
        """Percent slowdown over the method's own rate-0 run."""
        return {
            symbol: [point.degradation_pct for point in points]
            for symbol, points in self.series.items()
        }

    def render(self) -> str:
        """Table of degradation curves (percent over fault-free)."""
        title = (
            "Experiment 4: response-time degradation under injected faults\n"
            f"(percent over each method's fault-free run; seed {self.fault_seed})"
        )
        body = format_series(
            "error %", [100.0 * rate for rate in self.rates],
            self.degradation_series(), "{:.1f}",
        )
        return f"{title}\n{body}"

    def to_dict(self) -> dict:
        """JSON-serializable form of the degradation curves."""
        return {
            "fault_seed": self.fault_seed,
            "rates": list(self.rates),
            "series": {
                symbol: [dataclasses.asdict(point) for point in points]
                for symbol, points in self.series.items()
            },
        }


def experiment4_sweep(
    scale: ExperimentScale | None = None,
    max_rate: float = 0.01,
    fault_seed: int = 0,
    s_mb: float = EXPERIMENT3_S_MB,
    r_mb: float = EXPERIMENT3_R_MB,
    d_mb: float = EXPERIMENT3_D_MB,
    methods: typing.Sequence[str] = EXPERIMENT4_METHODS,
    retry_policy: RetryPolicy | None = None,
) -> Sweep:
    """The soft-error-rate sweep across all methods."""
    scale = scale or ExperimentScale()
    policy = retry_policy or RetryPolicy()
    r_blocks = scale.relation_blocks(r_mb)
    memory = EXPERIMENT4_M_FRACTION * r_blocks
    disk = scale.blocks(d_mb)
    rates = fault_rates(max_rate)

    tasks, points = [], []
    for symbol in methods:
        for rate in rates:
            plan = None if rate == 0.0 else FaultPlan.uniform(rate, seed=fault_seed)
            tasks.append(
                join_task(
                    symbol, r_mb, s_mb, memory_blocks=memory, disk_blocks=disk,
                    tape=BASE_TAPE, disk_params=DISK_1996, scale=scale,
                    fault_plan=plan,
                    retry_policy=None if plan is None else policy,
                )
            )
            points.append((symbol, rate))

    def assemble(results: list[dict]) -> Experiment4Result:
        series: dict[str, list[Experiment4Point]] = {symbol: [] for symbol in methods}
        baselines: dict[str, float] = {}
        for (symbol, rate), result in zip(points, results):
            stats = join_stats(result)
            if stats is None:
                series[symbol].append(
                    Experiment4Point(rate, None, None, None, None, None, None)
                )
                continue
            if rate == 0.0:
                baselines[symbol] = stats.response_s
            baseline = baselines.get(symbol)
            degradation = (
                None
                if baseline is None or baseline == 0
                else 100.0 * (stats.response_s / baseline - 1.0)
            )
            series[symbol].append(
                Experiment4Point(
                    rate,
                    stats.response_s,
                    degradation,
                    stats.fault_events,
                    stats.fault_retries,
                    stats.bucket_restarts,
                    stats.fault_recovery_s + stats.restart_lost_s,
                )
            )
        return Experiment4Result(rates, series, fault_seed)

    return Sweep(tasks, assemble)


def run_experiment4(
    *args, runner: SweepRunner | None = None, **kwargs
) -> Experiment4Result:
    """Run :func:`experiment4_sweep` (same arguments) through ``runner``."""
    return experiment4_sweep(*args, **kwargs).run(runner)
