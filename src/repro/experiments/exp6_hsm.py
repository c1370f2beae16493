"""Experiment 6: partition-cache payoff under skewed relation reuse.

This experiment has no counterpart in the paper, which joins each
relation once.  Real tertiary workloads revisit hot relations — the
same dimension cartridge joins against many fact tables — and the HSM
layer (``repro.hsm``) exploits that: the first Grace-Hash job's Step I
output (R's hash partition on disk) stays cached, and every later job
over the same relation skips its tape read entirely.

The sweep crosses **cache capacity** (0 MB = cache off, the baseline)
with **workload skew**: jobs draw their dimension relation from a pool
with Zipfian popularity, so higher skew concentrates reuse on fewer
cartridges.  Curves report makespan and cache hit ratio versus cache
size per skew.  Expected shape: at zero skew (uniform popularity) a
small cache thrashes and buys little; as skew grows, even a cache
holding two or three hot partitions absorbs most Step I work, and
makespan drops toward the one-cold-read-per-hot-relation floor.  The
``tests/hsm`` suite asserts the cache-on points strictly beat cache-off
on the repeated-relation workload.

Runs go through the sweep engine as ``service`` tasks; the cache
settings ride in the service config, so they are part of the
fingerprint.
"""

from __future__ import annotations

import dataclasses
import random
import typing

from repro.experiments.config import ExperimentScale
from repro.experiments.report import format_series
from repro.hsm.cache import CacheConfig
from repro.service.requests import JoinRequest, ServiceConfig
from repro.sweep.runner import Sweep, SweepRunner
from repro.sweep.tasks import service_task

#: Swept cache capacities in paper MB; 0 disables the cache (baseline).
EXPERIMENT6_CACHE_MB: tuple[float, ...] = (0.0, 125.0, 250.0, 500.0, 1000.0)

#: Swept Zipfian skew exponents (0 = uniform relation popularity).
EXPERIMENT6_SKEWS: tuple[float, ...] = (0.0, 0.8, 1.6)

#: The dimension-cartridge pool jobs draw R from (name, paper MB),
#: in popularity-rank order: rank 1 is the hottest under skew.
EXPERIMENT6_DIMENSIONS: tuple[tuple[str, float], ...] = (
    ("dim-a", 80.0),
    ("dim-b", 64.0),
    ("dim-c", 96.0),
    ("dim-d", 48.0),
    ("dim-e", 72.0),
    ("dim-f", 56.0),
)

#: Fact-table sizes in paper MB, cycled across jobs.
EXPERIMENT6_FACT_MB: tuple[float, ...] = (
    900.0, 400.0, 1200.0, 250.0, 700.0, 1600.0,
    320.0, 1100.0, 160.0, 2000.0, 480.0, 850.0,
)


def zipf_weights(n: int, skew: float) -> list[float]:
    """Unnormalized Zipfian popularity weights for ranks 1..n."""
    if n < 1:
        raise ValueError(f"need at least one rank, got {n}")
    if skew < 0:
        raise ValueError(f"skew must be non-negative, got {skew}")
    return [1.0 / (rank**skew) for rank in range(1, n + 1)]


def zipfian_workload(
    n_jobs: int = 12, skew: float = 0.8, seed: int = 0
) -> list[JoinRequest]:
    """A workload whose dimension relations repeat with Zipfian skew.

    The draw is seeded, so one (n_jobs, skew, seed) triple names exactly
    one workload — cache-on and cache-off points compare the same jobs.
    """
    if n_jobs < 1:
        raise ValueError(f"need at least one job, got {n_jobs}")
    rng = random.Random(seed)
    picks = rng.choices(
        range(len(EXPERIMENT6_DIMENSIONS)),
        weights=zipf_weights(len(EXPERIMENT6_DIMENSIONS), skew),
        k=n_jobs,
    )
    requests = []
    for i, pick in enumerate(picks):
        volume, r_mb = EXPERIMENT6_DIMENSIONS[pick]
        requests.append(
            JoinRequest(
                name=f"job{i:02d}",
                r_mb=r_mb,
                s_mb=EXPERIMENT6_FACT_MB[i % len(EXPERIMENT6_FACT_MB)],
                r_volume=volume,
                # Pin the cache-eligible disk-based method: left to the
                # planner, big fact tables pick CTT-GH (tape-resident
                # Step II, nothing to cache) and the method mix — not
                # the cache — would dominate the curves.
                method="CDT-GH",
            )
        )
    return requests


def experiment6_config(
    scale: ExperimentScale, cache_mb: float, cache_policy: str = "lru"
) -> ServiceConfig:
    """The shared library at one swept cache size (0 MB = no cache).

    The per-job disk budget is raised to 250 MB so CDT-GH is feasible
    for every dimension in the pool (the largest, 96 MB, would not fit
    Step II's disk-resident partition under the 100 MB default).
    """
    cache = None
    if cache_mb > 0:
        cache = CacheConfig(capacity_mb=cache_mb, policy=cache_policy)
    return ServiceConfig(scale=scale, disk_mb=250.0, cache=cache)


@dataclasses.dataclass(frozen=True)
class Experiment6Point:
    """One (cache size, skew) measurement."""

    cache_mb: float
    skew: float
    makespan_s: float
    mean_latency_s: float
    hit_ratio: float
    tape_mb_avoided: float
    evictions: int


@dataclasses.dataclass(frozen=True)
class Experiment6Result:
    """Cache-payoff curves over capacity, one series per skew."""

    cache_sizes: tuple[float, ...]
    skews: tuple[float, ...]
    series: dict[float, list[Experiment6Point]]
    policy: str
    cache_policy: str
    n_jobs: int
    seed: int

    def makespan_series(self) -> dict[str, list[float]]:
        """Makespan (s) per skew over cache size."""
        return {
            f"skew {skew:g}": [point.makespan_s for point in points]
            for skew, points in self.series.items()
        }

    def hit_ratio_series(self) -> dict[str, list[float]]:
        """Cache hit ratio per skew over cache size."""
        return {
            f"skew {skew:g}": [point.hit_ratio for point in points]
            for skew, points in self.series.items()
        }

    def render(self) -> str:
        """Two curve tables: makespan and hit ratio versus cache MB."""
        title = (
            "Experiment 6: partition-cache payoff under Zipfian reuse\n"
            f"({self.n_jobs} jobs, {self.policy} order, "
            f"{self.cache_policy} eviction, seed {self.seed}; "
            "cache 0 MB = disabled)"
        )
        makespan = format_series(
            "cache MB", list(self.cache_sizes), self.makespan_series(), "{:.0f}"
        )
        hits = format_series(
            "cache MB", list(self.cache_sizes), self.hit_ratio_series(), "{:.2f}"
        )
        return f"{title}\nmakespan (s):\n{makespan}\nhit ratio:\n{hits}"

    def to_dict(self) -> dict:
        """JSON-serializable form of the cache-payoff curves."""
        return {
            "policy": self.policy,
            "cache_policy": self.cache_policy,
            "n_jobs": self.n_jobs,
            "seed": self.seed,
            "cache_sizes": list(self.cache_sizes),
            "skews": list(self.skews),
            "series": {
                f"{skew:g}": [dataclasses.asdict(point) for point in points]
                for skew, points in self.series.items()
            },
        }


def experiment6_sweep(
    scale: ExperimentScale | None = None,
    cache_sizes: typing.Sequence[float] = EXPERIMENT6_CACHE_MB,
    skews: typing.Sequence[float] = EXPERIMENT6_SKEWS,
    n_jobs: int = 12,
    seed: int = 0,
    policy: str = "fifo",
    cache_policy: str = "lru",
) -> Sweep:
    """(cache size x skew) through the cache-aware service.

    Its trace step re-runs the highest-skew workload at the largest
    cache size in process with the observer attached and exports it as
    ``service-<policy>.jsonl`` / ``.trace.json`` (its cache spans and
    counters land in the trace; sweep workers return serialized
    reports, which cannot carry observers).
    """
    scale = scale or ExperimentScale()
    points = [(skew, cache_mb) for skew in skews for cache_mb in cache_sizes]
    tasks = [
        service_task(
            policy,
            zipfian_workload(n_jobs, skew, seed),
            experiment6_config(scale, cache_mb, cache_policy),
        )
        for skew, cache_mb in points
    ]

    def assemble(results: list[dict]) -> Experiment6Result:
        series: dict[float, list[Experiment6Point]] = {skew: [] for skew in skews}
        for (skew, cache_mb), report in zip(points, results):
            cache = report.get("cache") or {}
            series[skew].append(
                Experiment6Point(
                    cache_mb=cache_mb,
                    skew=skew,
                    makespan_s=report["makespan_s"],
                    mean_latency_s=report["mean_latency_s"],
                    hit_ratio=cache.get("hit_ratio", 0.0),
                    tape_mb_avoided=cache.get("tape_mb_avoided", 0.0),
                    evictions=cache.get("evictions", 0),
                )
            )
        return Experiment6Result(
            tuple(cache_sizes), tuple(skews), series, policy, cache_policy, n_jobs, seed
        )

    def trace(trace_out: str) -> None:
        from repro.api import run_service

        run_service(
            zipfian_workload(n_jobs, max(skews), seed),
            config=experiment6_config(scale, max(cache_sizes), cache_policy),
            policy=policy,
            trace_out=trace_out,
        )

    return Sweep(tasks, assemble, trace)


def run_experiment6(
    *args, runner: SweepRunner | None = None, trace_out: str | None = None, **kwargs
) -> Experiment6Result:
    """Run :func:`experiment6_sweep` (same arguments) through ``runner``;
    with ``trace_out``, then write its traces there."""
    return experiment6_sweep(*args, **kwargs).run(runner, trace_out)
