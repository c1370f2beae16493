"""Command-line entry point for the evaluation harness.

Regenerate any of the paper's tables and figures from a shell::

    python -m repro.experiments table3 --scale 0.1
    python -m repro.experiments fig4
    python -m repro.experiments fig5 --scale 0.3
    python -m repro.experiments exp3 --tape fast
    python -m repro.experiments fig1 fig2 fig3
    python -m repro.experiments assumptions
    python -m repro.experiments exp5 --policy affinity --scale 0.1
    python -m repro.experiments exp6 --scale 0.1
    python -m repro.experiments all --scale 0.1 --json artifacts.json

``--scale`` shrinks every size (relations, D, M) while preserving the
ratios that determine each experiment's outcome; scale 1.0 is the paper's
parameterization.  ``--json`` additionally writes the simulated artifacts
as machine-readable data for plotting.  The sweep/fault/tracing flags
(``--jobs``, ``--cache-dir``, ``--no-cache``, ``--fault-rate``,
``--fault-seed``, ``--trace-out``) come from the shared parent parser in
:mod:`repro.experiments.cli`, so they behave identically across exp1–exp5.

Every wanted artifact is a :class:`~repro.sweep.runner.Sweep` from
:data:`SWEEPS`.  Their tasks go to the sweep runner in one submission,
in argument order: one process pool, no barrier between artifacts, and
a task two artifacts share (table3's Join III is fig4's traced join)
runs once.  Each artifact is then assembled from its slice of the
results and printed, in argument order.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import typing

from repro.core.requirements import clamp_gh_memory
from repro.experiments.analytical import figure1, figure2, figure3
from repro.experiments.assumptions import assumption_sweep
from repro.experiments.cli import report_sweep_usage, runner_from_args, sweep_options
from repro.experiments.config import TAPE_SPEEDS, ExperimentScale, ScaleTooSmallError
from repro.experiments.exp1 import experiment1_sweep, figure4_sweep
from repro.experiments.exp2 import experiment2_sweep
from repro.experiments.exp3 import experiment3_sweep
from repro.experiments.exp4_faults import experiment4_sweep
from repro.experiments.exp5_service import EXPERIMENT5_POLICIES, experiment5_sweep
from repro.experiments.exp6_hsm import experiment6_sweep
from repro.sweep.runner import Sweep


def _scale(args: argparse.Namespace, **fields) -> ExperimentScale:
    return ExperimentScale(scale=args.scale, **fields)


#: Each artifact's sweep, built from the parsed command line.  Every
#: assembled artifact has ``render()`` and ``to_dict()``.
SWEEPS: dict[str, typing.Callable[[argparse.Namespace], Sweep]] = {
    "fig1": lambda args: Sweep([], lambda _: figure1()),
    "fig2": lambda args: Sweep([], lambda _: figure2()),
    "fig3": lambda args: Sweep([], lambda _: figure3()),
    "table3": lambda args: experiment1_sweep(_scale(args, tuple_bytes=8192)),
    "fig4": lambda args: figure4_sweep(_scale(args, tuple_bytes=8192)),
    "fig5": lambda args: experiment2_sweep(_scale(args)),
    "exp3": lambda args: experiment3_sweep(args.tape, _scale(args)),
    "assumptions": lambda args: assumption_sweep(),
    "exp4": lambda args: experiment4_sweep(
        _scale(args),
        max_rate=0.01 if args.fault_rate is None else args.fault_rate,
        fault_seed=args.fault_seed,
    ),
    "exp5": lambda args: experiment5_sweep(
        _scale(args),
        policies=EXPERIMENT5_POLICIES if args.policy == "all" else (args.policy,),
        max_jobs=args.workload_jobs,
        fault_rate=0.0 if args.fault_rate is None else args.fault_rate,
        fault_seed=args.fault_seed,
    ),
    "exp6": lambda args: experiment6_sweep(_scale(args), cache_policy=args.cache_policy),
}


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
        parents=[sweep_options()],
    )
    parser.add_argument(
        "artifacts",
        nargs="+",
        choices=(*SWEEPS, "all"),
        help="which artifacts to regenerate ('all' for everything)",
    )
    parser.add_argument(
        "--scale",
        type=float,
        default=1.0,
        help="size multiplier for the simulated experiments (default 1.0 "
        "= paper scale; 0.1 runs in a few seconds)",
    )
    parser.add_argument(
        "--tape",
        choices=sorted(TAPE_SPEEDS),
        default="base",
        help="tape speed for exp3 (data compressibility: slow/base/fast)",
    )
    parser.add_argument(
        "--json",
        metavar="PATH",
        default=None,
        help="also write the regenerated artifacts as JSON to PATH",
    )
    parser.add_argument(
        "--policy",
        choices=(*EXPERIMENT5_POLICIES, "all"),
        default="all",
        help="scheduling policy compared by exp5 (default: all of them)",
    )
    parser.add_argument(
        "--workload-jobs",
        type=int,
        default=10,
        metavar="N",
        help="largest workload size swept by exp5 (default 10)",
    )
    parser.add_argument(
        "--cache-policy",
        choices=("lru", "cost"),
        default="lru",
        help="partition-cache eviction policy swept by exp6 (default lru)",
    )
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    wanted = list(dict.fromkeys(SWEEPS if "all" in args.artifacts else args.artifacts))
    try:
        sweeps = [SWEEPS[artifact](args) for artifact in wanted]
    except ScaleTooSmallError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    runner = runner_from_args(args)
    results = iter(runner.run([task for sweep in sweeps for task in sweep.tasks]))
    collected: dict[str, object] = {}
    for artifact, sweep in zip(wanted, sweeps):
        result = sweep.assemble(list(itertools.islice(results, len(sweep.tasks))))
        print(result.render(), end="\n\n")
        collected[artifact] = result.to_dict()
        if args.trace_out and sweep.trace is not None:
            sweep.trace(args.trace_out)

    if args.json:
        _write_json_atomic(args.json, collected)
        print(f"wrote {args.json}")
    if args.trace_out and any(sweep.trace is None for sweep in sweeps):
        _run_trace_pass(args.trace_out, args.scale, args.tape)
    report_sweep_usage(runner)
    return 0


def _run_trace_pass(out_dir: str, scale_factor: float, tape_name: str) -> None:
    """Run every registered method once with full device tracing.

    Disk-based methods use the Experiment 3 frame (|S|=1000 MB,
    |R|=18 MB, D=50 MB before scaling) with M = 0.5 |R| clamped to the
    Grace Hash feasibility floor — the frame where their concurrency
    (tape streaming against disk activity) is visible.  The tape–tape
    methods use an Experiment-1-style frame (|R|=500 MB, |S|=1000 MB,
    M=16 MB, D=50 MB before scaling): |R| is tape-resident there, and
    D = |S|/20 gives Step II twenty pipelined iterations, so the
    drive-to-drive overlap the paper claims for CTT-GH is sustained
    rather than dominated by the first iteration's buffer fill.  Writes
    per-method ``trace-<symbol>.jsonl`` and ``trace-<symbol>.trace.json``
    plus an aggregate ``summary.json`` of derived utilization metrics.
    """
    from repro.api import run_join, trace
    from repro.core.registry import ALL_METHODS
    from repro.core.spec import InfeasibleJoinError
    from repro.experiments.config import (
        EXPERIMENT3_D_MB,
        EXPERIMENT3_R_MB,
        EXPERIMENT3_S_MB,
    )
    from repro.obs.metrics import buffer_utilization

    os.makedirs(out_dir, exist_ok=True)
    tape = TAPE_SPEEDS[tape_name]

    # Disk-based frame: Experiment 3 (R fits on disk).
    scale = ExperimentScale(scale=scale_factor)
    relation_r, relation_s = scale.relations(EXPERIMENT3_R_MB, EXPERIMENT3_S_MB)
    r_blocks = scale.relation_blocks(EXPERIMENT3_R_MB)
    disk_frame = {
        "name": "exp3",
        "relations": (relation_r, relation_s),
        "memory": clamp_gh_memory(0.5 * r_blocks, r_blocks),
        "disk": scale.blocks(EXPERIMENT3_D_MB),
        "scale": scale,
    }

    # Tape–tape frame: Experiment-1 geometry with D = |S|/20.
    tt_scale = ExperimentScale(scale=scale_factor, tuple_bytes=8192)
    tt_r, tt_s = tt_scale.relations(500.0, 1000.0)
    tt_r_blocks = tt_scale.relation_blocks(500.0)
    tape_frame = {
        "name": "exp1",
        "relations": (tt_r, tt_s),
        "memory": clamp_gh_memory(tt_scale.blocks(16.0), tt_r_blocks),
        "disk": tt_scale.blocks(50.0),
        "scale": tt_scale,
    }

    summary: dict[str, object] = {}
    for method in ALL_METHODS:
        symbol = method.symbol
        slug = symbol.lower().replace("/", "-")
        frame = tape_frame if method.tape_step2 else disk_frame
        spec = frame["scale"].join_spec(
            *frame["relations"],
            memory_blocks=frame["memory"],
            disk_blocks=frame["disk"],
            tape=tape,
            trace_devices=True,
        )
        try:
            stats = run_join(spec, method=symbol)
        except InfeasibleJoinError as exc:
            summary[symbol] = {"infeasible": True, "error": str(exc)}
            print(f"  trace: {symbol} infeasible on the trace frame", file=sys.stderr)
            continue
        meta = {
            "symbol": symbol,
            "method": stats.method,
            "frame": frame["name"],
            "scale": scale_factor,
            "tape": tape_name,
            "response_s": stats.response_s,
            "step1_s": stats.step1_s,
        }
        trace(stats, out_dir, meta=meta)
        method_summary = dict(stats.obs_summary or {})
        method_summary["frame"] = frame["name"]
        if "s_buffer.total" in stats.observer.series:
            figure4 = buffer_utilization(
                stats.observer, "s_buffer", frame["disk"],
                (stats.step1_s, stats.response_s),
            )
            method_summary["buffer_mean_total_pct"] = figure4["mean_total_pct"]
        summary[symbol] = method_summary
        print(f"  trace: {symbol} -> trace-{slug}.jsonl", file=sys.stderr)
    _write_json_atomic(os.path.join(out_dir, "summary.json"), summary)
    print(f"wrote device traces for {len(summary)} method(s) to {out_dir}")


def _write_json_atomic(path: str, payload: dict) -> None:
    """Write the artifact JSON via a same-directory temp file + rename.

    A crash mid-write never leaves a truncated artifact, and ``/dev/null``
    (not renameable) still works as a sink for smoke tests.
    """
    if path == os.devnull:
        with open(path, "w") as handle:
            json.dump(payload, handle, indent=2)
        return
    tmp = f"{path}.{os.getpid()}.tmp"
    try:
        with open(tmp, "w") as handle:
            json.dump(payload, handle, indent=2)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):  # only on a failed dump
            os.unlink(tmp)


if __name__ == "__main__":
    sys.exit(main())
