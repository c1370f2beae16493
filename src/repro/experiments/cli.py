"""Shared command-line plumbing for sweep-driven tools.

One ``argparse`` parent parser wires the sweep-execution, fault and
tracing flags — ``--jobs/--cache-dir/--no-cache/--fault-rate/
--fault-seed/--trace-out`` — so they are spelled, defaulted and
documented identically across every experiment (exp1–exp5) and any
future tool.  ``python -m repro.experiments`` composes it via
``argparse.ArgumentParser(parents=[sweep_options()])``.
"""

from __future__ import annotations

import argparse
import sys

from repro.sweep.cache import DEFAULT_CACHE_DIR, SweepCache
from repro.sweep.runner import SweepRunner


def sweep_options() -> argparse.ArgumentParser:
    """The shared parent parser (``add_help=False``; use via ``parents=``)."""
    parent = argparse.ArgumentParser(add_help=False)
    execution = parent.add_argument_group("sweep execution")
    execution.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="worker processes for the simulated sweeps (default 1 = "
        "in-order, single-process execution)",
    )
    execution.add_argument(
        "--cache-dir",
        metavar="PATH",
        default=DEFAULT_CACHE_DIR,
        help=f"sweep result cache directory (default {DEFAULT_CACHE_DIR!r})",
    )
    execution.add_argument(
        "--no-cache",
        action="store_true",
        help="recompute every sweep point; neither read nor write the cache",
    )
    faults = parent.add_argument_group("fault injection")
    faults.add_argument(
        "--fault-rate",
        type=float,
        default=None,
        metavar="P",
        help="per-operation soft-error rate: exp4 sweeps 0, P/100, P/10, P "
        "(default P=0.01); exp5 injects at P directly (default 0 = "
        "fault-free, analytical job profiles)",
    )
    faults.add_argument(
        "--fault-seed",
        type=int,
        default=0,
        metavar="N",
        help="seed of the experiments' fault plans; a fixed seed replays "
        "the exact same fault sequence on every run (default 0)",
    )
    tracing = parent.add_argument_group("tracing")
    tracing.add_argument(
        "--trace-out",
        metavar="DIR",
        default=None,
        help="additionally run device-traced passes and write JSONL + "
        "Chrome-trace files to DIR (see docs/observability.md)",
    )
    return parent


def progress_printer(done: int, total: int, note: str) -> None:
    """The stderr progress callback multi-process sweeps report through."""
    print(f"  sweep {done}/{total} ({note})", file=sys.stderr)


def runner_from_args(args: argparse.Namespace) -> SweepRunner:
    """Build the sweep runner the shared flags describe."""
    cache = None if args.no_cache else SweepCache(args.cache_dir)
    return SweepRunner(
        jobs=args.jobs,
        cache=cache,
        progress=progress_printer if args.jobs > 1 else None,
    )


def report_sweep_usage(runner: SweepRunner) -> None:
    """Print the cache and profile summaries a run accumulated (stderr)."""
    cache = runner.cache
    if cache is not None and (cache.hits or cache.stores):
        print(
            f"sweep cache: {cache.hits} hits, {cache.misses} misses "
            f"({cache.stores} stored) in {cache.root}",
            file=sys.stderr,
        )
    profile = runner.profile()
    if profile["executed"]:
        costliest = sorted(
            profile["by_method"].items(), key=lambda item: -item[1]["run_s"]
        )[:3]
        methods = "".join(
            f"; {symbol} {entry['run_s']:.1f}s ({entry['tasks']} task(s))"
            for symbol, entry in costliest
        )
        print(
            f"sweep profile: {profile['executed']} task(s) executed "
            f"({profile['cached']} cached) in {profile['wall_s']:.1f}s wall; "
            f"run {profile['run_s']:.1f}s, idle {profile['idle_s']:.1f}s, "
            f"cache load {profile['cache_load_s']:.2f}s / "
            f"store {profile['cache_store_s']:.2f}s{methods}",
            file=sys.stderr,
        )
