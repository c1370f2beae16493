"""Tiny-scale smoke tests of the benchmark itself.

Run from the repository root with ``python3 -m pytest perfbench -q``.
"""

from __future__ import annotations

import json
import os
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
for entry in (str(ROOT / "src"), str(HERE)):
    if entry not in sys.path:
        sys.path.insert(0, entry)

import run  # noqa: E402
import workloads  # noqa: E402
from repro.relational.join_core import JoinResult  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def tiny_workloads(workdir: pathlib.Path) -> list[workloads.Workload]:
    return [
        workloads.Fig5Rescan(scale=0.02, d_fractions=(1.5, 3.0)),
        workloads.Exp3Dense(scale=0.03, m_fractions=(0.1, 0.5)),
        workloads.HsmService(scale=0.05, n_jobs=3),
        workloads.WarmCli(ROOT, workdir, scale=0.01),
    ]


def test_declarations_match_benchmark_json():
    assert list(run.METHOD_SLUGS) == [run._slug(m.symbol) for m in workloads.ALL_METHODS]
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(workloads.NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == list(
        run.PER_LAYER
    )


@pytest.mark.parametrize("index", range(4), ids=workloads.NAMES)
def test_every_metric_is_emitted_with_its_unit(index, tmp_path, monkeypatch):
    monkeypatch.setattr(run, "WORKDIR", tmp_path)
    workload = tiny_workloads(tmp_path)[index]
    try:
        plain = run.measure(workload, 1, seconds=0, trace=False, setup_reps=1, min_passes=1)
        traced = run.measure(workload, 1, seconds=0, trace=True)
    finally:
        workload.close()
    for outcome, declared in (
        (plain, BENCHMARK["end_to_end"]),
        (traced, BENCHMARK["per_layer"]),
    ):
        assert outcome["failed"] == 0, outcome["failures"]
        assert outcome["attempted"] >= 1
        assert {name: m["unit"] for name, m in outcome["metrics"].items()} == {
            m["name"]: m["unit"] for m in declared
        }
        for metric in outcome["metrics"].values():
            assert isinstance(metric["value"], (int, float))
    assert all(plain["metrics"][m["name"]]["value"] > 0 for m in BENCHMARK["end_to_end"])


def test_corrupted_checksum_is_a_failure():
    workload = workloads.Fig5Rescan(scale=0.02, d_fractions=(1.5, 3.0))
    workload.setup(1)
    clean = workload.run_pass()
    assert [op.failure for op in clean.ops] == [None] * 4
    good = workload.reference
    workload.reference = JoinResult(good.n_pairs, good.checksum ^ 1)
    corrupted = workload.run_pass()
    assert [op.failure is not None for op in corrupted.ops] == [True] * 4
    assert all("differs from the reference" in op.failure for op in corrupted.ops)


def test_corrupted_service_reference_is_a_failure():
    workload = workloads.HsmService(scale=0.05, n_jobs=3)
    workload.setup(1)
    key = next(iter(workload.reference))
    good = workload.reference[key]
    workload.reference[key] = JoinResult(good.n_pairs + 1, good.checksum)
    result = workload.run_pass()
    assert result.ops[0].failure is not None  # the cold run simulates the joins


def test_sim_digest_repeats_for_a_seed():
    first = workloads.Exp3Dense(scale=0.03, m_fractions=(0.5,))
    first.setup(3)
    second = workloads.Exp3Dense(scale=0.03, m_fractions=(0.5,))
    second.setup(3)
    a, b = first.run_pass(), second.run_pass()
    assert a.sim_digest() == b.sim_digest()
    assert a.extra["planner_regret_pct"] == b.extra["planner_regret_pct"]


def test_named_seeds():
    assert run.parse_seed("default") == run.DEFAULT_SEED
    assert run.parse_seed("held-out") == run.HELD_OUT_SEED != run.DEFAULT_SEED
    assert run.parse_seed("42") == 42


def test_refuses_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    env = {key: value for key, value in os.environ.items() if key != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", *BENCHMARK["command"][2:],
         "--workload", "fig5-rescan", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
