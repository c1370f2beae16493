"""The python -m repro.experiments command line."""

import contextlib
import io
from unittest import mock

import pytest

from repro.experiments.__main__ import main
from repro.experiments.cli import report_sweep_usage
from repro.sweep.runner import SweepRunner


class TestCli:
    def test_analytical_figures_are_fast(self, capsys):
        assert main(["fig1", "fig2", "fig3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 1" in out and "Figure 2" in out and "Figure 3" in out

    def test_scaled_table3(self, capsys):
        assert main(["table3", "--scale", "0.05"]) == 0
        out = capsys.readouterr().out
        assert "Table 3" in out
        assert "Join IV" in out

    def test_scaled_fig4(self, capsys):
        assert main(["fig4", "--scale", "0.1"]) == 0
        assert "utilization" in capsys.readouterr().out

    def test_exp3_with_tape_choice(self, capsys):
        assert main(["exp3", "--scale", "0.15", "--tape", "fast"]) == 0
        out = capsys.readouterr().out
        assert "fast tape" in out
        assert "Figure 8" in out

    def test_duplicate_artifacts_run_once(self, capsys):
        assert main(["fig1", "fig1"]) == 0
        assert capsys.readouterr().out.count("Figure 1 (small |R|)") == 1

    def test_fig5_below_its_smallest_scale_fails_with_one_line(self, capsys):
        assert main(["fig5", "--scale", "0.005", "--no-cache"]) != 0
        (line,) = capsys.readouterr().err.splitlines()
        assert "fig5" in line and "smallest usable scale is 0.0061" in line

    def test_fig5_runs_at_its_smallest_scale(self, capsys):
        assert main(["fig5", "--scale", "0.0061", "--no-cache"]) == 0
        assert "Figure 5" in capsys.readouterr().out

    def test_unknown_artifact_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure99"])


class TestJsonExport:
    def test_json_output_is_valid_and_inf_free(self, tmp_path, capsys):
        import json

        out = tmp_path / "artifacts.json"
        assert main(["fig1", "table3", "--scale", "0.05", "--json", str(out)]) == 0
        data = json.loads(out.read_text())
        assert set(data) == {"fig1", "table3"}
        assert len(data["table3"]["rows"]) == 4
        assert all(
            v is None or isinstance(v, (int, float))
            for series in data["fig1"]["curves"].values()
            for v in series
        )

    def test_assumptions_artifact(self, capsys):
        assert main(["assumptions"]) == 0
        out = capsys.readouterr().out
        assert "media exchanges" in out
        assert "disk positioning" in out

    def test_stats_to_dict_round_trips_through_json(self, small_r, small_s):
        import json

        from repro.core.registry import method_by_symbol
        from repro.core.spec import JoinSpec
        from repro.sweep.serialize import stats_from_dict, stats_to_dict

        stats = method_by_symbol("CDT-GH").run(
            JoinSpec(small_r, small_s, memory_blocks=10.0, disk_blocks=130.0)
        )
        payload = json.loads(json.dumps(stats_to_dict(stats)))
        assert payload["symbol"] == "CDT-GH"
        assert payload["output"]["n_pairs"] == stats.output.n_pairs
        assert stats_from_dict(payload) == stats
        assert stats_from_dict(payload).relative_cost == stats.relative_cost


class TestTraceOut:
    @pytest.fixture(scope="class")
    def trace_dir(self, tmp_path_factory):
        """One shared trace pass at small scale (runs every method once)."""
        out = tmp_path_factory.mktemp("traces")
        assert main(["fig1", "--scale", "0.05", "--trace-out", str(out)]) == 0
        return out

    def test_every_method_emits_both_formats(self, trace_dir):
        from repro.core.registry import ALL_METHODS

        for method in ALL_METHODS:
            slug = method.symbol.lower().replace("/", "-")
            assert (trace_dir / f"trace-{slug}.jsonl").is_file()
            assert (trace_dir / f"trace-{slug}.trace.json").is_file()

    def test_traces_validate_against_schema(self, trace_dir):
        from repro.obs.validate import validate_directory

        counts = validate_directory(str(trace_dir))
        assert len(counts) == 14  # 7 methods x 2 formats
        assert all(count > 0 for count in counts.values())

    def test_summary_shows_paper_concurrency_claims(self, trace_dir):
        import json

        summary = json.loads((trace_dir / "summary.json").read_text())
        assert not any(entry.get("infeasible") for entry in summary.values())
        # CDT methods stream tape against the disk array...
        for symbol in ("CDT-NB/MB", "CDT-NB/DB", "CDT-GH"):
            assert summary[symbol]["tape_disk_overlap_fraction"] > 0.9, symbol
        # ...their serial counterparts never do...
        for symbol in ("DT-NB", "DT-GH"):
            assert summary[symbol]["tape_disk_overlap_fraction"] == 0.0, symbol
        # ...and the tape-tape methods keep both drives streaming at once
        # (TT-GH only pipelines in Step II; its Step I is serial by design).
        assert summary["CTT-GH"]["tape_overlap_fraction"] > 0.9
        assert summary["TT-GH"]["step2_tape_overlap_fraction"] > 0.9

    def test_summary_utilization_is_sane(self, trace_dir):
        import json

        summary = json.loads((trace_dir / "summary.json").read_text())
        for symbol, entry in summary.items():
            util = entry["device_utilization"]
            assert util, symbol
            assert all(0.0 <= value <= 1.0 for value in util.values()), symbol
            assert 0.0 < entry["disk_balance"] <= 1.0, symbol
        # Hash partitioning spreads buckets across the stripe; balance is
        # near-perfect for the GH methods even at tiny scale.
        for symbol in ("DT-GH", "CDT-GH", "CTT-GH", "TT-GH"):
            assert summary[symbol]["disk_balance"] > 0.9, symbol

    def test_figure4_curve_rides_the_ctt_trace(self, trace_dir):
        import json

        summary = json.loads((trace_dir / "summary.json").read_text())
        assert summary["CTT-GH"]["buffer_mean_total_pct"] > 50.0


class TestSweepProfileLine:
    def test_names_the_three_costliest_methods(self, capsys):
        runner = SweepRunner()
        runner.timings = [
            {"kind": kind, "symbol": symbol, "source": "inline", "queue_s": 0.0, "run_s": run_s}
            for kind, symbol, run_s in [
                ("join", "DT-NB", 0.6), ("join", "CTT-GH", 9.0), ("assumption", None, 20.0),
                ("join", "CDT-GH", 11.4), ("join", "CTT-GH", 7.0), ("join", "DT-GH", 2.4),
            ]
        ]
        report_sweep_usage(runner)
        line = capsys.readouterr().err.strip()
        assert line.startswith("sweep profile: 6 task(s) executed")
        assert "; run 50.4s, idle 0.0s, " in line  # inline tasks leave no worker idle
        assert line.endswith(
            "; CTT-GH 16.0s (2 task(s)); CDT-GH 11.4s (1 task(s)); DT-GH 2.4s (1 task(s))"
        )
        assert "DT-NB" not in line and "assumption" not in line

    def test_no_join_tasks_names_no_method(self, capsys):
        runner = SweepRunner()
        runner.timings = [
            {"kind": "assumption", "symbol": None, "source": "inline", "queue_s": 0.0, "run_s": 1.0}
        ]
        report_sweep_usage(runner)
        assert capsys.readouterr().err.strip().endswith("store 0.00s")

    def test_reports_pool_idle_worker_seconds(self, capsys):
        runner = SweepRunner(jobs=2)
        runner.timings = [
            {"kind": "assumption", "symbol": None, "source": "pool", "queue_s": 40.0, "run_s": 1.0}
        ]
        runner._idle_s = 3.5
        report_sweep_usage(runner)
        line = capsys.readouterr().err.strip()
        assert "; run 1.0s, idle 3.5s, " in line
        assert "queue" not in line  # the per-task waits are not summed


@contextlib.contextmanager
def recorded_runs():
    """Record every ``SweepRunner.run`` call as (runner, tasks)."""
    calls = []
    real_run = SweepRunner.run

    def run(self, tasks):
        calls.append((self, list(tasks)))
        return real_run(self, tasks)

    with mock.patch.object(SweepRunner, "run", run):
        yield calls


class TestOneSubmission:
    """All wanted artifacts go to the runner as one submission."""

    ARGV = ["table3", "fig4", "fig5", "--scale", "0.01", "--no-cache"]

    @staticmethod
    def run_cli(argv, json_path):
        with recorded_runs() as calls, contextlib.redirect_stdout(io.StringIO()):
            assert main([*argv, "--json", str(json_path)]) == 0
        return calls, json_path.read_bytes()

    @pytest.fixture(scope="class")
    def sequential(self, tmp_path_factory):
        return self.run_cli(self.ARGV, tmp_path_factory.mktemp("cli") / "jobs1.json")

    def test_one_run_call_runs_join_iii_once(self, sequential):
        calls, _ = sequential
        ((runner, tasks),) = calls
        traced = [task for task in tasks if task.payload.get("trace")]
        # table3's Join III is fig4's traced join: the same task, run once.
        assert len(traced) == 2 and traced[0] == traced[1]
        assert runner.profile()["executed"] == len(tasks) - 1

    def test_jobs2_json_matches_jobs1_from_one_pool(self, sequential, tmp_path):
        calls, pooled = self.run_cli([*self.ARGV, "--jobs", "2"], tmp_path / "jobs2.json")
        assert pooled == sequential[1]
        ((runner, _),) = calls
        # No artifact is left with a lone task that bypasses the pool.
        assert {timing["source"] for timing in runner.timings} == {"pool"}
