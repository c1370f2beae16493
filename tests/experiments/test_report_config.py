"""Report rendering and experiment configuration."""

import math

import pytest

from repro.experiments.config import (
    BASE_TAPE,
    EXPERIMENT1_JOINS,
    FAST_TAPE,
    SLOW_TAPE,
    TAPE_SPEEDS,
    ExperimentScale,
)
from repro.experiments.report import format_series, format_table


class TestFormatTable:
    def test_alignment_and_rule(self):
        text = format_table(["name", "value"], [["a", 1], ["bb", 22]])
        lines = text.splitlines()
        assert len(lines) == 4
        assert "----" in lines[1]
        assert lines[0].endswith("value")

    def test_float_formatting(self):
        text = format_table(["x"], [[1.5], [2.0], [float("inf")]])
        assert "1.50" in text
        assert "2" in text
        assert "inf" in text


class TestFormatSeries:
    def test_series_columns(self):
        text = format_series("x", [1.0, 2.0], {"a": [10.0, 20.0], "b": [None, 5.0]})
        lines = text.splitlines()
        assert lines[0].split() == ["x", "a", "b"]
        assert "-" in lines[2]  # None rendered as dash

    def test_infinite_values_render_as_dash(self):
        text = format_series("x", [1.0], {"a": [math.inf]})
        assert text.splitlines()[-1].split()[-1] == "-"


class TestTapeSpeeds:
    def test_paper_rates(self):
        assert BASE_TAPE.effective_rate_mb_s == pytest.approx(2.0)
        assert SLOW_TAPE.effective_rate_mb_s == pytest.approx(1.5)
        assert FAST_TAPE.effective_rate_mb_s == pytest.approx(3.0)
        assert set(TAPE_SPEEDS) == {"base", "slow", "fast"}


class TestExperimentScale:
    def test_scaling_math(self):
        scale = ExperimentScale(scale=0.1)
        assert scale.mb(1000.0) == pytest.approx(100.0)
        assert scale.blocks(1.0) == pytest.approx(0.1 * 1024 * 1024 / (100 * 1024))

    def test_scale_validation(self):
        with pytest.raises(ValueError):
            ExperimentScale(scale=0.0)

    @pytest.mark.parametrize("factor", [float("nan"), float("inf")])
    def test_non_finite_scale_is_rejected(self, factor):
        with pytest.raises(ValueError):
            ExperimentScale(scale=factor)

    def test_relations_track_scale(self):
        scale = ExperimentScale(scale=0.5)
        r, s = scale.relations(18.0, 100.0)
        assert r.size_mb == pytest.approx(9.0, rel=1e-3)
        assert s.size_mb == pytest.approx(50.0, rel=1e-3)
        assert r.n_blocks < s.n_blocks

    def test_experiment1_parameters_match_paper(self):
        by_name = {join.name: join for join in EXPERIMENT1_JOINS}
        assert by_name["Join I"].s_mb == 1000.0
        assert by_name["Join IV"].s_mb == 10000.0
        assert by_name["Join IV"].r_mb == 2500.0
        assert all(join.m_mb == 16.0 for join in EXPERIMENT1_JOINS)
        # D is one fifth of |R| throughout.
        assert all(
            join.d_mb == pytest.approx(join.r_mb / 5) for join in EXPERIMENT1_JOINS
        )
