"""Sweep engine wall-clock: cold vs. warm cache, sequential vs. --jobs 2 and 4.

Times ``python -m repro.experiments all --scale 0.3`` through the real
CLI four ways — sequential without a cache, ``--jobs 2`` without a
cache, ``--jobs 4`` filling a cold cache, and ``--jobs 4`` against the
warm cache — asserts all four JSON artifacts are byte-identical, and
records the timings in ``BENCH_sweep.json`` at the repository root so
future PRs can track the perf trajectory.

The warm-cache speedup is hardware-independent (cached points skip
simulation entirely) and is asserted unconditionally.  The cold parallel
speedup needs actual cores; on boxes with fewer than four the process
pool is pure overhead, so that assertion is gated on ``os.cpu_count()``
and the measured number is recorded either way.
"""

import json
import os
import pathlib
import subprocess
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCALE = "0.3"


def run_cli(tmp_path: pathlib.Path, label: str, *flags: str) -> tuple[float, bytes]:
    """Run ``repro.experiments all`` with ``flags``; return (seconds, artifact)."""
    artifact = tmp_path / f"{label}.json"
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = (
        src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    )
    start = time.perf_counter()
    subprocess.run(
        [
            sys.executable, "-m", "repro.experiments", "all",
            "--scale", SCALE, "--json", str(artifact), *flags,
        ],
        check=True,
        env=env,
        stdout=subprocess.DEVNULL,
        stderr=subprocess.DEVNULL,
    )
    return time.perf_counter() - start, artifact.read_bytes()


def test_bench_sweep_cold_vs_warm(tmp_path):
    cache = tmp_path / "cache"
    cold_seq_s, seq_bytes = run_cli(tmp_path, "cold_seq", "--no-cache")
    cold_jobs2_s, jobs2_bytes = run_cli(
        tmp_path, "cold_jobs2", "--jobs", "2", "--no-cache"
    )
    cold_par_s, par_bytes = run_cli(
        tmp_path, "cold_par", "--jobs", "4", "--cache-dir", str(cache)
    )
    warm_s, warm_bytes = run_cli(
        tmp_path, "warm", "--jobs", "4", "--cache-dir", str(cache)
    )

    # The artifact-parity contract: parallel and cached runs are
    # byte-identical to the sequential run.
    assert jobs2_bytes == seq_bytes
    assert par_bytes == seq_bytes
    assert warm_bytes == seq_bytes

    cores = os.cpu_count() or 1
    record = {
        "command": f"python -m repro.experiments all --scale {SCALE}",
        "cpu_cores": cores,
        "cold_sequential_s": round(cold_seq_s, 3),
        "cold_jobs2_s": round(cold_jobs2_s, 3),
        "cold_jobs4_s": round(cold_par_s, 3),
        "warm_jobs4_s": round(warm_s, 3),
        "warm_speedup_vs_cold_sequential": round(cold_seq_s / warm_s, 2),
        "cold_jobs4_speedup_vs_sequential": round(cold_seq_s / cold_par_s, 2),
        "artifacts_byte_identical": True,
    }
    (ROOT / "BENCH_sweep.json").write_text(json.dumps(record, indent=2) + "\n")
    print("\nBENCH_sweep.json: " + json.dumps(record, indent=2))

    assert cold_seq_s / warm_s >= 3.0
    if cores >= 4:
        assert cold_seq_s / cold_par_s >= 1.5
