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
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
import time

from repro.experiments.analytical import figure1, figure2, figure3
from repro.experiments.assumptions import run_assumption_checks
from repro.experiments.cli import report_sweep_usage, runner_from_args, sweep_options
from repro.experiments.config import TAPE_SPEEDS, ExperimentScale, ScaleTooSmallError
from repro.experiments.exp1 import run_experiment1, run_figure4
from repro.experiments.exp2 import run_experiment2
from repro.experiments.exp3 import run_experiment3
from repro.experiments.exp4_faults import run_experiment4
from repro.experiments.exp5_service import EXPERIMENT5_POLICIES, run_experiment5
from repro.experiments.exp6_hsm import run_experiment6
from repro.storage.block import BlockSpec
from repro.sweep.runner import SweepRunner

ARTIFACTS = ("fig1", "fig2", "fig3", "table3", "fig4", "fig5", "exp3",
             "assumptions", "exp4", "exp5", "exp6", "all")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="python -m repro.experiments",
        description="Regenerate the paper's tables and figures.",
        parents=[sweep_options()],
    )
    parser.add_argument(
        "artifacts",
        nargs="+",
        choices=ARTIFACTS,
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


def _run_assumptions(runner: SweepRunner) -> tuple[str, dict]:
    exchange, positioning, locate = run_assumption_checks(runner)
    text = "\n".join(
        [
            "Section 3.2 assumption checks:",
            f"  media exchanges over full cartridges: {100 * exchange.share:.2f} % "
            f"of a {exchange.n_volumes}-volume scan",
            f"  disk positioning at 30-block requests: {100 * positioning.share:.2f} % "
            "of a worst-case scan",
            f"  distance-based locate model moves CTT-GH by "
            f"{100 * locate.relative_change:+.2f} %",
        ]
    )
    data = {
        "media_exchange": dataclasses.asdict(exchange),
        "disk_positioning": dataclasses.asdict(positioning),
        "locate_sensitivity": dataclasses.asdict(locate),
    }
    return text, data


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    wanted = list(ARTIFACTS[:-1]) if "all" in args.artifacts else args.artifacts
    runner = runner_from_args(args)
    try:
        collected = _regenerate(wanted, args, runner)
    except ScaleTooSmallError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        _write_json_atomic(args.json, collected)
        print(f"wrote {args.json}")
    if args.trace_out and any(artifact not in ("exp5", "exp6") for artifact in wanted):
        _run_trace_pass(args.trace_out, args.scale, args.tape)
    report_sweep_usage(runner)
    return 0


def _regenerate(
    wanted: list[str], args: argparse.Namespace, runner: SweepRunner
) -> dict[str, object]:
    """Run and print each wanted artifact; return their JSON forms."""
    scale = ExperimentScale(scale=args.scale)
    scale_exp1 = ExperimentScale(scale=args.scale, tuple_bytes=8192)
    block_spec = BlockSpec()
    collected: dict[str, object] = {}

    for artifact in dict.fromkeys(wanted):  # preserve order, drop dupes
        started = time.perf_counter()
        if artifact in ("fig1", "fig2", "fig3"):
            result = {"fig1": figure1, "fig2": figure2, "fig3": figure3}[artifact]()
            print(result.render())
            collected[artifact] = {
                "ratios": list(result.ratios),
                "curves": {
                    symbol: [None if math.isinf(v) else v for v in series]
                    for symbol, series in result.curves.items()
                },
            }
        elif artifact == "table3":
            result = run_experiment1(scale=scale_exp1, runner=runner)
            print(result.render())
            collected[artifact] = result.to_dict()
        elif artifact == "fig4":
            result = run_figure4(scale=scale_exp1, runner=runner)
            print(result.render())
            collected[artifact] = result.to_dict()
        elif artifact == "fig5":
            result = run_experiment2(scale=scale, runner=runner)
            print(result.render())
            collected[artifact] = result.to_dict()
        elif artifact == "exp3":
            result = run_experiment3(args.tape, scale=scale, runner=runner)
            print(result.render(block_spec))
            collected[artifact] = result.to_dict(block_spec)
        elif artifact == "assumptions":
            text, data = _run_assumptions(runner)
            print(text)
            collected[artifact] = data
        elif artifact == "exp4":
            result = run_experiment4(
                scale=scale,
                max_rate=0.01 if args.fault_rate is None else args.fault_rate,
                fault_seed=args.fault_seed,
                runner=runner,
            )
            print(result.render())
            collected[artifact] = result.to_dict()
        elif artifact == "exp5":
            policies = (
                EXPERIMENT5_POLICIES if args.policy == "all" else (args.policy,)
            )
            result = run_experiment5(
                scale=scale,
                policies=policies,
                max_jobs=args.workload_jobs,
                fault_rate=0.0 if args.fault_rate is None else args.fault_rate,
                fault_seed=args.fault_seed,
                runner=runner,
                trace_out=args.trace_out,
            )
            print(result.render())
            collected[artifact] = result.to_dict()
        elif artifact == "exp6":
            result = run_experiment6(
                scale=scale,
                cache_policy=args.cache_policy,
                runner=runner,
                trace_out=args.trace_out,
            )
            print(result.render())
            collected[artifact] = result.to_dict()
        print(f"[{artifact} regenerated in {time.perf_counter() - started:.1f}s]\n")
    return collected


#: Methods joining tape-to-tape (|R| need not fit on disk).  They trace
#: on an Experiment-1-style frame where R is tape-resident; everything
#: else traces on the Experiment 3 frame, where R fits on disk.
_TAPE_TAPE_SYMBOLS = frozenset({"CTT-GH", "TT-GH"})


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
    floor = 1.05 * math.sqrt(r_blocks)
    disk_frame = {
        "name": "exp3",
        "relations": (relation_r, relation_s),
        "memory": min(max(0.5 * r_blocks, floor), max(r_blocks - 1.0, floor)),
        "disk": scale.blocks(EXPERIMENT3_D_MB),
        "scale": scale,
    }

    # Tape–tape frame: Experiment-1 geometry with D = |S|/20.
    tt_scale = ExperimentScale(scale=scale_factor, tuple_bytes=8192)
    tt_r, tt_s = tt_scale.relations(500.0, 1000.0)
    tt_r_blocks = tt_scale.relation_blocks(500.0)
    tt_floor = 1.05 * math.sqrt(tt_r_blocks)
    tape_frame = {
        "name": "exp1",
        "relations": (tt_r, tt_s),
        "memory": min(
            max(tt_scale.blocks(16.0), tt_floor), max(tt_r_blocks - 1.0, tt_floor)
        ),
        "disk": tt_scale.blocks(50.0),
        "scale": tt_scale,
    }

    summary: dict[str, object] = {}
    for method in ALL_METHODS:
        symbol = method.symbol
        slug = symbol.lower().replace("/", "-")
        frame = tape_frame if symbol in _TAPE_TAPE_SYMBOLS else disk_frame
        spec = frame["scale"].join_spec(
            *frame["relations"],
            memory_blocks=frame["memory"],
            disk_blocks=frame["disk"],
            tape=tape,
            trace_buffers=True,
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
        if "s_buffer.total" in stats.traces.series:
            figure4 = buffer_utilization(
                stats.traces, "s_buffer", frame["disk"],
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
