"""Analytical formulas: hand-computed values, feasibility, monotonicity."""

import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.registry import method_by_symbol
from repro.costmodel.formulas import estimate, estimate_all
from repro.costmodel.parameters import SystemParameters

ALL = ["DT-NB", "CDT-NB/MB", "CDT-NB/DB", "DT-GH", "CDT-GH", "CTT-GH", "TT-GH"]


def params(**overrides):
    base = dict(
        size_r_blocks=100.0,
        size_s_blocks=1000.0,
        memory_blocks=20.0,
        disk_blocks=300.0,
        disk_rate_blocks_s=40.0,
        tape_rate_blocks_s=20.0,
    )
    base.update(overrides)
    return SystemParameters(**base)


class TestHandComputedValues:
    def test_dt_nb(self):
        # Ms = 18 blocks -> N = ceil(1000/18) = 56 iterations.
        cost = estimate("DT-NB", params())
        assert cost.iterations == 56
        # step1 = 100/20 + 100/40 = 7.5 ; step2 = 1000/20 + 56*100/40 = 190
        assert cost.step1_s == pytest.approx(7.5)
        assert cost.step2_s == pytest.approx(190.0)

    def test_cdt_nb_mb_halves_chunk(self):
        cost = estimate("CDT-NB/MB", params())
        assert cost.iterations == 112  # ceil(1000/9)
        # step2 = 9/20 + 112*max(9/20, 100/40) = 0.45 + 280
        assert cost.step2_s == pytest.approx(280.45)

    def test_cdt_nb_db_stages_s_through_disk(self):
        cost = estimate("CDT-NB/DB", params())
        assert cost.iterations == 56  # full-size chunk, as DT-NB
        # step1 = max(100/20, 100/40) = 5
        assert cost.step1_s == pytest.approx(5.0)
        # per-iter max(18/20, (2*18 + 100)/40 = 3.4); step2 = 0.9 + 56*3.4
        assert cost.step2_s == pytest.approx(191.3)
        assert cost.disk_traffic_blocks == pytest.approx(100 * 57 + 2000.0)

    def test_dt_gh(self):
        cost = estimate("DT-GH", params())
        # d = 300 - 100 = 200 -> N = 5
        assert cost.iterations == 5
        assert cost.step1_s == pytest.approx(7.5)
        # step2 = 1000/20 + (2*1000 + 5*100)/40 = 50 + 62.5
        assert cost.step2_s == pytest.approx(112.5)
        assert cost.disk_traffic_blocks == pytest.approx(2600.0)

    def test_cdt_gh(self):
        cost = estimate("CDT-GH", params())
        # d = 200, N = 5; per-iter max(200/20, (400+100)/40) = 12.5
        assert cost.iterations == 5
        assert cost.step2_s == pytest.approx(200 / 20 + 5 * 12.5)

    def test_ctt_gh(self):
        cost = estimate("CTT-GH", params())
        # scans = ceil(100/300) = 1; step1 = max(5, 2*100/40=5) + 5 = 10
        assert cost.step1_s == pytest.approx(10.0)
        # chunk = min(300, 1000) = 300; N = 4;
        # per-iter max(300/20=15, 100/20=5, 600/40=15) = 15
        assert cost.step2_s == pytest.approx(15 + 4 * 15)

    def test_tt_gh(self):
        cost = estimate("TT-GH", params())
        assert cost.iterations == 13  # one per bucket
        # R: 1 scan of 100 + a 100-block append; S: 4 scans of 1000 + a
        # 1000-block append; all at 20 blocks/s
        assert cost.step1_s == pytest.approx(260.0)
        # the hashed copies stream off both drives at once
        assert cost.step2_s == pytest.approx(50.0)

    def test_unknown_symbol(self):
        with pytest.raises(KeyError):
            estimate("XX", params())


@st.composite
def system_parameters(draw):
    """Sizes, M, D, T_R and T_S around every Table 2 threshold."""
    size_r = draw(st.floats(1.0, 1000.0))
    scratch = st.one_of(st.just(math.inf), st.floats(0.0, 30.0 * size_r))
    return params(
        size_r_blocks=size_r,
        size_s_blocks=size_r * draw(st.floats(1.0, 20.0)),
        memory_blocks=draw(st.floats(0.1, 2.0 * size_r)),
        disk_blocks=draw(st.floats(0.1, 3.0 * size_r)),
        scratch_r_blocks=draw(scratch),
        scratch_s_blocks=draw(scratch),
    )


class TestFeasibility:
    @given(p=system_parameters())
    @example(p=params(disk_blocks=100.5))  # DT-GH, CDT-GH: D < |R| + 1
    @example(p=params(disk_blocks=5.0))  # CTT-GH, TT-GH: D < 0.35M + 1
    @example(p=params(memory_blocks=1.5))  # CDT-NB/MB: M < 2
    @settings(max_examples=300, deadline=None)
    def test_model_feasibility_is_table2(self, p):
        """The model rules a method out exactly where its Table 2
        requirements do."""
        budgets = (p.memory_blocks, p.disk_blocks, p.scratch_r_blocks, p.scratch_s_blocks)
        for symbol in ALL:
            fits = method_by_symbol(symbol).requirements(p).fits(*budgets)
            assert estimate(symbol, p).feasible == fits, symbol

    def test_nb_needs_r_on_disk(self):
        cost = estimate("DT-NB", params(disk_blocks=50.0))
        assert not cost.feasible
        assert math.isinf(cost.total_s)
        assert cost.reason.startswith("DT-NB needs ")
        assert "D>=100.0" in cost.reason

    def test_gh_needs_sqrt_memory(self):
        cost = estimate("CDT-GH", params(memory_blocks=5.0))
        assert not cost.feasible

    def test_gh_needs_space_beyond_r(self):
        cost = estimate("DT-GH", params(disk_blocks=100.0))
        assert not cost.feasible

    def test_ctt_needs_r_scratch(self):
        cost = estimate("CTT-GH", params(scratch_r_blocks=50.0))
        assert not cost.feasible

    def test_tt_needs_both_scratches(self):
        assert not estimate("TT-GH", params(scratch_r_blocks=500.0)).feasible
        assert not estimate("TT-GH", params(scratch_s_blocks=50.0)).feasible

    def test_estimate_all_covers_everything(self):
        costs = estimate_all(params())
        assert set(costs) == set(ALL)
        assert all(costs[symbol].feasible for symbol in ALL)


class TestMonotonicity:
    @pytest.mark.parametrize("symbol", ALL)
    def test_faster_tape_never_hurts(self, symbol):
        slow = estimate(symbol, params(tape_rate_blocks_s=15.0))
        fast = estimate(symbol, params(tape_rate_blocks_s=30.0))
        assert fast.total_s <= slow.total_s + 1e-9

    @pytest.mark.parametrize("symbol", ALL)
    def test_faster_disks_never_hurt(self, symbol):
        slow = estimate(symbol, params(disk_rate_blocks_s=30.0))
        fast = estimate(symbol, params(disk_rate_blocks_s=60.0))
        assert fast.total_s <= slow.total_s + 1e-9

    @pytest.mark.parametrize("symbol", ["DT-NB", "CDT-NB/MB", "CDT-NB/DB"])
    def test_nb_methods_improve_with_memory(self, symbol):
        small = estimate(symbol, params(memory_blocks=10.0))
        large = estimate(symbol, params(memory_blocks=60.0))
        assert large.total_s < small.total_s

    @pytest.mark.parametrize("symbol", ["DT-GH", "CDT-GH"])
    def test_gh_methods_improve_with_disk(self, symbol):
        small = estimate(symbol, params(disk_blocks=150.0))
        large = estimate(symbol, params(disk_blocks=600.0))
        assert large.total_s <= small.total_s + 1e-9

    def test_ctt_gh_disk_sensitivity_is_mild(self):
        """CTT-GH is not strictly monotone in D (a larger |S_i| means a
        larger pipeline-fill latency), but the effect stays small when R
        re-reads are cheap."""
        small = estimate("CTT-GH", params(disk_blocks=150.0))
        large = estimate("CTT-GH", params(disk_blocks=600.0))
        assert large.total_s <= 1.6 * small.total_s

    def test_concurrent_variants_dominate_sequential(self):
        p = params()
        assert estimate("CDT-GH", p).total_s <= estimate("DT-GH", p).total_s
        assert (
            estimate("CDT-NB/DB", p).total_s <= estimate("DT-NB", p).total_s
        )


class TestDiskTraffic:
    def test_nb_traffic_counts_r_scans(self):
        cost = estimate("DT-NB", params())
        assert cost.disk_traffic_blocks == pytest.approx((1 + 56) * 100.0)

    def test_gh_traffic_includes_s_through_disk(self):
        cost = estimate("CDT-GH", params())
        assert cost.disk_traffic_blocks == pytest.approx(100 * 6 + 2000.0)

    def test_tape_tape_traffic_is_flat(self):
        cost = estimate("CTT-GH", params())
        assert cost.disk_traffic_blocks == pytest.approx(2 * 100 + 2 * 1000.0)
