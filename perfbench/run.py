"""Benchmark entry point: one workload, one seed, one JSON result line.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fig5-rescan --seed 1 --seconds 15 --trace 0

``--trace 0`` sets up the workload several times, then runs untraced
passes for ``--seconds`` (at least three) and reports the end-to-end
metrics.  ``--trace 1`` runs two untraced passes (the first warms up),
one pass with spans, one with call counters and one under cProfile, and
reports the per-layer metrics.  ``--seed default`` and ``--seed held-out`` name the two fixed
seeds; a claim tuned on the first is confirmed on the second.

Every pass checks every result (see ``workloads.py``).  The last line of
standard output is ``{"correct", "attempted", "failed", "metrics"}``;
the line before it is a report with provenance, ``sim_digest`` and the
simulated outputs.  The program is imported from ``src/`` of the
checkout this file sits in, and nothing else: without it the run fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import pathlib
import platform
import resource
import statistics
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKDIR = ROOT / ".perfbench-work"

DEFAULT_SEED = 1
HELD_OUT_SEED = 7919

#: The seven method symbols, in registry order, as metric-name slugs.
METHOD_SLUGS = ("DT-NB", "CDT-NB-MB", "CDT-NB-DB", "DT-GH", "CDT-GH", "CTT-GH", "TT-GH")

#: End-to-end metrics (host time and memory, tracing off): name -> unit.
END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "slowest_op_s": "s",
    "peak_rss_mb": "MB",
}

#: Per-layer metrics: (name, unit, better).  ``sim_s`` marks simulated
#: seconds; every other time is host time.
PER_LAYER: tuple[tuple[str, str, str], ...] = (
    ("simulator.events", "count", "lower"),
    ("simulator.resumes", "count", "lower"),
    ("simulator.self_s", "s", "lower"),
    ("simulator.events_per_s", "1/s", "higher"),
    ("storage.self_s", "s", "lower"),
    ("storage.tape_read_range_calls", "count", "lower"),
    ("storage.disk_read_calls", "count", "lower"),
    ("storage.disk_write_calls", "count", "lower"),
    ("storage.bus_transfer_calls", "count", "lower"),
    ("buffering.self_s", "s", "lower"),
    ("relational.hash_join_calls", "count", "lower"),
    ("relational.hash_join_s", "s", "lower"),
    ("relational.partition_calls", "count", "lower"),
    ("relational.partition_s", "s", "lower"),
    ("numpy.self_s", "s", "lower"),
    ("core.self_s", "s", "lower"),
    *((f"core.run_s.{slug}", "s", "lower") for slug in METHOD_SLUGS),
    ("planner.plan_s", "s", "lower"),
    ("planner.regret_pct", "%", "lower"),
    ("planner.planned_sim_s", "sim_s", "lower"),
    *((f"costmodel.sim_over_model.{slug}", "ratio", "lower") for slug in METHOD_SLUGS),
    ("costmodel.abs_err_pct", "%", "lower"),
    ("sweep.fingerprint_s", "s", "lower"),
    ("sweep.cache_load_s", "s", "lower"),
    ("sweep.cache_store_s", "s", "lower"),
    ("sweep.cache_hits", "count", "higher"),
    ("sweep.executed", "count", "lower"),
    ("cli.import_s", "s", "lower"),
    ("service.admit_s", "s", "lower"),
    ("service.run_s", "s", "lower"),
    ("service.makespan_s", "sim_s", "lower"),
    ("service.mean_latency_s", "sim_s", "lower"),
    ("service.exchanges", "count", "lower"),
    ("hsm.hit_ratio", "ratio", "higher"),
    ("hsm.evictions", "count", "lower"),
    ("hsm.tape_mb_avoided", "MB", "higher"),
    ("obs.trace_overhead_pct", "%", "lower"),
)

#: Set-up repetitions per untraced run (``setup_s`` is their median) and
#: the fewest passes a run may report a median over.
SETUP_REPS = 3
MIN_PASSES = 3


def _slug(symbol: str) -> str:
    return symbol.replace("/", "-")


def parse_seed(text: str) -> int:
    """An integer seed, or ``default`` / ``held-out``."""
    named = {"default": DEFAULT_SEED, "held-out": HELD_OUT_SEED}
    if text in named:
        return named[text]
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"seed must be an integer, 'default' or 'held-out', got {text!r}"
        ) from None


def _use_checkout_src() -> None:
    """Import ``repro`` from this checkout's ``src/``, or fail."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no program to measure: {src}/repro is missing")
    sys.path.insert(0, str(src))


def source_digest(src: pathlib.Path) -> str:
    """sha256 over every Python file under ``src`` (path and bytes)."""
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def provenance(workload, seed: int) -> dict:
    import numpy

    from repro.sweep.fingerprint import CODE_VERSION

    commit = dirty = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30, check=True,
            ).stdout.strip()
            dirty = bool(subprocess.run(
                ["git", "status", "--porcelain", "--untracked-files=no"], cwd=ROOT,
                capture_output=True, text=True, timeout=30, check=True,
            ).stdout.strip())
        except (OSError, subprocess.SubprocessError):
            commit = dirty = None
    return {
        "commit": commit,
        "dirty": dirty,
        "src_sha256": source_digest(ROOT / "src"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "code_version": CODE_VERSION,
        "seed": seed,
        "scale": workload.scale,
    }


def model_validation() -> dict:
    """Simulated Table 3 relative costs against the paper's published ones.

    Runs through the sweep engine with a cache under the work directory,
    so only the first run in a checkout pays for the four joins.
    """
    from repro.experiments.config import ExperimentScale
    from repro.experiments.exp1 import Table3Result, run_experiment1
    from repro.sweep.cache import SweepCache
    from repro.sweep.runner import SweepRunner

    scale = 0.1
    runner = SweepRunner(cache=SweepCache(WORKDIR / "table3-cache"))
    result = run_experiment1(ExperimentScale(scale=scale, tuple_bytes=8192), runner=runner)
    rows = {}
    for row in result.rows:
        paper = Table3Result.PAPER_RELATIVE_COSTS[row.name]
        rows[row.name] = {
            "simulated": row.relative_cost,
            "paper": paper,
            "error_pct": 100.0 * (row.relative_cost / paper - 1.0),
        }
    mean_abs = statistics.fmean(abs(r["error_pct"]) for r in rows.values())
    return {"scale": scale, "rows": rows, "mean_abs_error_pct": mean_abs}


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


class SpeedGauge:
    """Scales host seconds to a reference machine speed.

    On a shared host the program's speed swings by a fifth or more within
    minutes, and up to twofold, as other tenants load the caches and
    memory.  The gauge reads its slowness after every operation: the time
    of a fixed kernel over that kernel's time at the reference speed.  One
    over the mean of the readings on either side of an operation is its
    factor; a pass is scaled by the median factor of its operations.

    The kernel has two halves, weighed equally.  One chases pointers
    through a pool of small objects into a heap, as the event loop does;
    the other sorts and gathers an integer array, as the numpy data plane
    does.  Contention slows each half much as it slows that part of the
    program, and the halves slow by different amounts: over pseudo-runs cut
    from four minutes of passes, the spread of ``wall_s`` was 0.04 to 0.07
    with both halves against 0.07 to 0.10 with the first alone.  The kernel
    runs no program code, so a change to the program cannot move it.
    """

    #: Seconds of each half at the reference speed: its typical time on
    #: the 2-core Xeon VM the bounds were set on, when that host was quiet.
    CHASE_REFERENCE_S = 0.0035
    SORT_REFERENCE_S = 0.0115

    def __init__(self, pool_size: int = 100_000, probes: int = 4000):
        import random

        import numpy

        rng = random.Random(0)
        self._table = {i: (rng.random(), i) for i in range(pool_size)}
        self._order = [rng.randrange(pool_size) for _ in range(probes)]
        self._keys = numpy.random.default_rng(0).integers(0, 1 << 40, size=pool_size)
        self.samples: list[float] = []
        self.restart()

    def _chase(self) -> None:
        import heapq

        table = self._table
        heap: list = []
        for key in self._order:
            heapq.heappush(heap, table[key])
            if len(heap) > 500:
                heapq.heappop(heap)

    def _sort(self) -> None:
        self._keys[self._keys.argsort(kind="stable")].sum()

    @staticmethod
    def _best_s(kernel, reps: int = 2) -> float:
        best = float("inf")
        for _ in range(reps):
            started = time.perf_counter()
            kernel()
            best = min(best, time.perf_counter() - started)
        return best

    def _slowness(self) -> float:
        return (
            self._best_s(self._chase) / self.CHASE_REFERENCE_S
            + self._best_s(self._sort) / self.SORT_REFERENCE_S
        ) / 2.0

    def _read(self) -> float:
        slowness = self._slowness()
        self.samples.append(slowness)
        return slowness

    def factor(self) -> float:
        """Scale for the interval that ended just now."""
        current = self._read()
        factor = 2.0 / (self.last + current)
        self.last = current
        return factor

    def restart(self) -> None:
        """Take a fresh reading for the interval that starts now."""
        self.last = self._read()


class ChildSpeedGauge(SpeedGauge):
    """The speed gauge for operations that run in a child process.

    A CLI child spends most of its time starting an interpreter and
    importing modules from disk, which the in-process kernel does not
    track.  This kernel does the same kind of work: a fresh interpreter
    that imports numpy and the standard modules the program uses, and no
    program code.  Between runs minutes apart on a shared host the CLI's
    raw time moves by a third; its ratio to this kernel moves by a few
    per cent.
    """

    #: Kernel seconds at the reference speed (same host as ``SpeedGauge``).
    REFERENCE_S = 0.2
    CODE = (
        "import numpy, json, hashlib, argparse, dataclasses, heapq, "
        "concurrent.futures, multiprocessing, statistics, tempfile"
    )

    def __init__(self):
        self.samples: list[float] = []
        self.restart()

    def _slowness(self) -> float:
        started = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", self.CODE], cwd=ROOT, stdout=subprocess.DEVNULL,
            timeout=120, check=True,
        )
        return (time.perf_counter() - started) / self.REFERENCE_S


def end_to_end_metrics(workload, setup_s: float, passes) -> dict:
    if workload.runs_in_child:
        peak_rss_mb = _median([op.rss_mb for p in passes for op in p.ops])
    else:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": setup_s,
        "wall_s": _median([p.wall_s * p.speed_factor() for p in passes]),
        # Per operation the median over passes, then the slowest: a pass's
        # maximum over its operations picks up whichever one noise hit.
        "slowest_op_s": max(
            _median([p.scaled_op_s(i) for p in passes]) for i in range(len(passes[0].ops))
        ),
        "peak_rss_mb": peak_rss_mb,
    }


def fresh_import_s(module: str) -> float:
    """Seconds a fresh interpreter spends importing ``module``."""
    code = (
        "import time; t = time.perf_counter(); "
        f"import {module}; print(time.perf_counter() - t)"
    )
    path = os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")])
    out = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=dict(os.environ, PYTHONPATH=path),
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(out.stdout.strip().splitlines()[-1])


def per_layer_metrics(untraced, spanned, tracer, by_layer) -> dict:
    from repro.costmodel import estimate

    values = dict.fromkeys((name for name, _, _ in PER_LAYER), 0.0)
    totals = tracer.totals()

    def span_s(name: str) -> float:
        return totals.get(name, (0, 0.0))[1]

    counts = tracer.counts
    for name in (
        "simulator.events", "simulator.resumes", "storage.tape_read_range_calls",
        "storage.disk_read_calls", "storage.disk_write_calls",
        "storage.bus_transfer_calls",
    ):
        values[name] = counts[name]
    values["simulator.events_per_s"] = counts["simulator.events"] / untraced.wall_s
    for layer in ("simulator", "storage", "buffering", "numpy", "core"):
        values[f"{layer}.self_s"] = by_layer.get(layer, 0.0)
    values["relational.hash_join_calls"] = totals.get("relational.hash_join", (0, 0.0))[0]
    values["relational.hash_join_s"] = span_s("relational.hash_join")
    values["relational.partition_calls"] = totals.get("relational.partition", (0, 0.0))[0]
    values["relational.partition_s"] = span_s("relational.partition")
    for slug in METHOD_SLUGS:
        values[f"core.run_s.{slug}"] = sum(
            seconds for name, (_, seconds) in totals.items()
            if name.startswith("core.run.") and _slug(name[len("core.run."):]) == slug
        )
    values["planner.plan_s"] = span_s("planner.plan")
    values["planner.regret_pct"] = untraced.extra.get("planner_regret_pct", 0.0)
    values["planner.planned_sim_s"] = untraced.extra.get("planned_sim_s", 0.0)

    ratios: dict[str, list[float]] = {}
    for symbol, params, response_s in untraced.joins:
        model_s = estimate(symbol, params).total_s
        ratios.setdefault(_slug(symbol), []).append(response_s / model_s)
    for slug, samples in ratios.items():
        values[f"costmodel.sim_over_model.{slug}"] = statistics.fmean(samples)
    all_ratios = [r for samples in ratios.values() for r in samples]
    if all_ratios:
        values["costmodel.abs_err_pct"] = 100.0 * statistics.fmean(abs(r - 1.0) for r in all_ratios)

    values["sweep.fingerprint_s"] = span_s("sweep.fingerprint")
    if tracer.runners:
        profile = tracer.runners[-1].profile()
        values["sweep.cache_load_s"] = profile["cache_load_s"]
        values["sweep.cache_store_s"] = profile["cache_store_s"]
        values["sweep.cache_hits"] = profile["cached"]
        values["sweep.executed"] = profile["executed"]
    values["cli.import_s"] = statistics.median(
        fresh_import_s("repro.experiments.__main__") for _ in range(3)
    )
    values["service.admit_s"] = span_s("service.admit")
    values["service.run_s"] = span_s("service.run")
    for name, value in untraced.extra.items():
        if name in values:
            values[name] = value
    values["obs.trace_overhead_pct"] = 100.0 * (spanned.wall_s / untraced.wall_s - 1.0)
    return values


def measure(workload, seed: int, seconds: float, trace: bool,
            setup_reps: int = SETUP_REPS, min_passes: int = MIN_PASSES) -> dict:
    """Set up, run the passes and compute the metrics for one run.

    One set-up is importing the benchmark and the program in a fresh
    interpreter plus ``workload.setup(seed)``; ``setup_s`` is the median,
    each part scaled to the reference speed by the gauge that tracks it.
    """
    from probes import Tracer, profile_self_time

    gauge = None
    setup_times, raw_setup_times = [], []
    if trace:
        workload.setup(seed)
    else:
        # ``gauge`` tracks the workload's own work; a fresh import is a child.
        child_gauge = ChildSpeedGauge()
        gauge = child_gauge if workload.runs_in_child else SpeedGauge()
        for _ in range(setup_reps):
            import_s = fresh_import_s("workloads")
            import_factor = child_gauge.factor()
            if gauge is not child_gauge:
                gauge.restart()
            started = time.perf_counter()
            workload.setup(seed)
            setup_raw = time.perf_counter() - started
            raw_setup_times.append(import_s + setup_raw)
            setup_times.append(import_s * import_factor + setup_raw * gauge.factor())

    if trace:
        tracer = Tracer(workload.name)
        warmup = workload.inprocess_pass()  # first-use costs stay out of the ratios
        untraced = workload.inprocess_pass()
        with tracer.spans_attached():
            spanned = workload.inprocess_pass()
        with tracer.counters_attached():
            counted = workload.inprocess_pass()
        profiled = []
        by_layer = profile_self_time(lambda: profiled.append(workload.inprocess_pass()))
        passes = [warmup, untraced, spanned, counted, *profiled]
        values = per_layer_metrics(untraced, spanned, tracer, by_layer)
        units = {name: unit for name, unit, _ in PER_LAYER}
        tracer.write(WORKDIR / f"spans-{workload.name}-{seed}.jsonl")
    else:
        started = time.perf_counter()
        workload.warm_up()
        warm_up_s = time.perf_counter() - started
        gauge.restart()
        passes = []
        started = time.perf_counter()
        while len(passes) < min_passes or time.perf_counter() - started < seconds:
            passes.append(workload.run_pass(gauge))
        values = end_to_end_metrics(workload, _median(setup_times), passes)
        units = END_TO_END

    ops = [op for p in passes for op in p.ops]
    failures = [f"{op.label}: {op.failure}" for op in ops if op.failure]
    digests = [p.sim_digest() for p in passes]
    return {
        "metrics": {name: {"value": values[name], "unit": units[name]} for name in units},
        "attempted": len(ops),
        "failed": len(failures),
        "failures": failures,
        "passes": len(passes),
        "pass_wall_s": [p.wall_s for p in passes],
        "op_seconds": {op.label: [q.ops[i].seconds for q in passes] for i, op in enumerate(passes[0].ops)},
        "sim_digest": digests[0],
        "sim_digest_stable": len(set(digests)) == 1,
        "warm_up_s": None if trace else warm_up_s,
        "raw_setup_s": None if trace else _median(raw_setup_times),
        "raw_wall_s": _median([p.wall_s for p in passes]),
        "gauge_slowness": gauge.samples if gauge else [],
        "simulated": {k: v for k, v in passes[0].extra.items() if k != "planner_picks"},
    }


def main(argv: list[str] | None = None) -> int:
    _use_checkout_src()
    import repro
    import workloads

    if not pathlib.Path(repro.__file__).resolve().is_relative_to(ROOT / "src"):
        raise SystemExit(f"perfbench: imported repro from {repro.__file__}, not {ROOT / 'src'}")

    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=parse_seed, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    workload = workloads.build(args.workload, ROOT, WORKDIR)
    try:
        outcome = measure(workload, args.seed, args.seconds, bool(args.trace))
    finally:
        workload.close()
    validation = model_validation()

    report = {
        "workload": workload.name,
        "trace": args.trace,
        "provenance": {**provenance(workload, args.seed), "sim_digest": outcome["sim_digest"]},
        "sim_digest_stable": outcome["sim_digest_stable"],
        "fail_ratio": outcome["failed"] / outcome["attempted"],
        "passes": outcome["passes"],
        "warm_up_s": outcome["warm_up_s"],
        "raw_setup_s": outcome["raw_setup_s"],
        "raw_wall_s": outcome["raw_wall_s"],
        "gauge_slowness": outcome["gauge_slowness"],
        "pass_wall_s": outcome["pass_wall_s"],
        "op_seconds": outcome["op_seconds"],
        "simulated": outcome["simulated"],
        "failures": outcome["failures"][:10],
        "model_validation": validation,
    }
    rows = ", ".join(
        f"{name} {row['simulated']:.2f} vs {row['paper']:.1f} ({row['error_pct']:+.1f} %)"
        for name, row in validation["rows"].items()
    )
    print(
        f"model validation, Table 3 relative cost at scale {validation['scale']:g}, "
        f"simulated vs paper: {rows}; mean |error| {validation['mean_abs_error_pct']:.1f} %"
    )
    for name, metric in outcome["metrics"].items():
        print(f"{name} = {metric['value']:.6g} {metric['unit']}")
    print(json.dumps({"report": report}, sort_keys=True))
    print(json.dumps({
        "correct": outcome["failed"] == 0,
        "attempted": outcome["attempted"],
        "failed": outcome["failed"],
        "metrics": outcome["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
