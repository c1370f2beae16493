"""Experiment 4: fault sweep structure, determinism, CLI plumbing."""

import pytest

from repro.experiments.config import ExperimentScale
from repro.experiments.exp4_faults import (
    EXPERIMENT4_METHODS,
    fault_rates,
    run_experiment4,
)

SCALE = ExperimentScale(scale=0.05)
METHODS = ("DT-NB", "CTT-GH")  # one scan-based, one Grace Hash method


class TestFaultRates:
    def test_zero_sweeps_only_the_baseline(self):
        assert fault_rates(0.0) == (0.0,)

    def test_three_decades_up_to_max(self):
        assert fault_rates(0.01) == (0.0, 0.0001, 0.001, 0.01)

    def test_negative_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            fault_rates(-0.1)


@pytest.fixture(scope="module")
def seed3():
    """The seed-3 sweep, run once and read by every test below."""
    return run_experiment4(scale=SCALE, methods=METHODS, fault_seed=3)


class TestRunExperiment4:
    def test_degradation_curves_start_at_zero(self, seed3):
        assert set(seed3.series) == set(METHODS)
        for symbol, points in seed3.series.items():
            assert len(points) == len(seed3.rates)
            assert points[0].rate == 0.0
            assert points[0].degradation_pct == 0.0
            # Faults only cost time: no point may beat its baseline.
            assert all(p.degradation_pct >= 0.0 for p in points)

    def test_top_rate_actually_degrades(self, seed3):
        for symbol, points in seed3.series.items():
            assert points[-1].degradation_pct > 0.0, symbol
            assert points[-1].fault_events > 0, symbol

    def test_fixed_seed_is_deterministic(self, seed3):
        second = run_experiment4(scale=SCALE, methods=METHODS, fault_seed=3)
        assert seed3.to_dict() == second.to_dict()

    def test_different_seed_changes_the_curves(self, seed3):
        a = seed3
        b = run_experiment4(scale=SCALE, methods=METHODS, fault_seed=4)
        assert a.to_dict() != b.to_dict()
        # ... but the fault-free baselines are seed-independent.
        for symbol in METHODS:
            assert a.series[symbol][0].response_s == b.series[symbol][0].response_s

    def test_covers_all_seven_methods_by_default(self):
        assert len(EXPERIMENT4_METHODS) == 7

    def test_render_mentions_every_method(self, seed3):
        text = seed3.render()
        assert "Experiment 4" in text
        for symbol in METHODS:
            assert symbol in text


class TestCli:
    def test_exp4_artifact_with_fault_flags(self, capsys, tmp_path):
        import json

        from repro.experiments.__main__ import main

        out = tmp_path / "exp4.json"
        assert main([
            "exp4", "--scale", "0.05", "--fault-rate", "0.01",
            "--fault-seed", "3", "--json", str(out),
        ]) == 0
        assert "Experiment 4" in capsys.readouterr().out
        data = json.loads(out.read_text())["exp4"]
        assert data["fault_seed"] == 3
        assert data["rates"] == [0.0, 0.0001, 0.001, 0.01]
        assert set(data["series"]) == set(EXPERIMENT4_METHODS)
