"""Smoke-test the runnable examples end to end."""

import pathlib
import runpy

import pytest

EXAMPLES = pathlib.Path(__file__).resolve().parent.parent / "examples"


@pytest.mark.parametrize(
    "name",
    [
        "quickstart",
        "data_mining_sweep",
        "tape_library_batch",
        "interleaved_buffering_demo",
        "tape_query",
    ],
)
def test_example_runs_to_completion(name, capsys):
    runpy.run_path(str(EXAMPLES / f"{name}.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"example {name} produced no output"


def test_quickstart_reports_verification(capsys):
    runpy.run_path(str(EXAMPLES / "quickstart.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "Output verified" in out


def test_public_api_quickstart_snippet():
    """The snippet in the package docstring must actually work."""
    import repro

    r = repro.uniform_relation("R", size_mb=2.0, seed=1)
    s = repro.uniform_relation("S", size_mb=6.0, seed=2)
    spec = repro.JoinSpec(r, s, memory_blocks=5.0, disk_blocks=60.0)
    plan = repro.plan_join(spec)
    stats = repro.method_by_symbol(plan.chosen).run(spec)
    assert stats.response_s > 0
    assert stats.output == repro.reference_join(r, s)


def test_tape_library_batch_makespan_matches_fifo_service(capsys):
    """The night batch runs FIFO: its printed makespan must equal a
    direct FIFO service run of the same backlog."""
    from repro import api

    namespace = runpy.run_path(str(EXAMPLES / "tape_library_batch.py"))
    report = namespace["night_batch_report"]("fifo")
    assert report.policy == "fifo"

    namespace["main"]()
    out = capsys.readouterr().out
    (line,) = [l for l in out.splitlines() if "night batch makespan" in l]
    assert f"{report.makespan_s:.0f} s" in line

    direct = api.run_service(
        [
            api.JoinRequest(
                name=month,
                r_mb=namespace["DIMENSION_MB"],
                s_mb=fact_mb,
                r_volume="dimension",
                s_volume=f"facts-{month}",
            )
            for month, fact_mb in namespace["MONTHS"]
        ],
        config=api.ServiceConfig(memory_mb=16.0, disk_mb=160.0),
        policy="fifo",
    )
    assert direct.makespan_s == report.makespan_s
