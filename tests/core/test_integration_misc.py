"""Cross-cutting integration checks: topologies, determinism, tracing."""

import pytest

from repro.core.registry import method_by_symbol, symbols
from repro.core.spec import JoinSpec
from repro.relational.join_core import reference_join


def spec_for(small_r, small_s, **kwargs):
    defaults = dict(memory_blocks=10.0, disk_blocks=130.0)
    defaults.update(kwargs)
    return JoinSpec(small_r, small_s, **defaults)


class TestTopologyVariants:
    @pytest.mark.parametrize("n_disks", [1, 2, 4])
    def test_correct_on_any_disk_count(self, small_r, small_s, n_disks):
        expected = reference_join(small_r, small_s)
        spec = spec_for(small_r, small_s, n_disks=n_disks)
        stats = method_by_symbol("CDT-GH").run(spec)
        assert stats.output == expected

    def test_more_disks_never_slower(self, small_r, small_s):
        one = method_by_symbol("CDT-GH").run(spec_for(small_r, small_s, n_disks=1))
        four = method_by_symbol("CDT-GH").run(spec_for(small_r, small_s, n_disks=4))
        assert four.response_s <= one.response_s + 1e-6

    def test_single_bus_correct_and_not_faster(self, small_r, small_s):
        expected = reference_join(small_r, small_s)
        dual = method_by_symbol("CTT-GH").run(spec_for(small_r, small_s, n_buses=2))
        single = method_by_symbol("CTT-GH").run(
            spec_for(small_r, small_s, n_buses=1, bus_bandwidth_mb_s=5.0)
        )
        assert single.output == expected
        assert single.response_s >= dual.response_s - 1e-6

    def test_narrow_bus_throttles_the_join(self, small_r, small_s):
        wide = method_by_symbol("CDT-GH").run(
            spec_for(small_r, small_s, bus_bandwidth_mb_s=20.0)
        )
        narrow = method_by_symbol("CDT-GH").run(
            spec_for(small_r, small_s, n_buses=1, bus_bandwidth_mb_s=2.0)
        )
        assert narrow.response_s > wide.response_s


class TestDeterminism:
    @pytest.mark.parametrize("symbol", symbols())
    def test_repeat_runs_are_identical(self, symbol, small_r, small_s):
        first = method_by_symbol(symbol).run(spec_for(small_r, small_s))
        second = method_by_symbol(symbol).run(spec_for(small_r, small_s))
        assert first.response_s == second.response_s
        assert first.disk_traffic_blocks == second.disk_traffic_blocks
        assert first.output == second.output


class TestTracing:
    @pytest.mark.parametrize("symbol", ["CDT-NB/DB", "CDT-GH", "CTT-GH"])
    def test_buffer_trace_collected_when_requested(self, symbol, small_r, small_s):
        stats = method_by_symbol(symbol).run(
            spec_for(small_r, small_s, trace_devices=True)
        )
        assert stats.observer is not None
        total = stats.observer.series["s_buffer.total"]
        assert len(total) > 2
        assert total.max() > 0

    def test_no_trace_by_default(self, small_r, small_s):
        stats = method_by_symbol("CDT-GH").run(spec_for(small_r, small_s))
        assert stats.observer is None


class TestFasterTapeHelps:
    def test_response_falls_with_tape_speed(self, small_r, small_s):
        from repro.storage.tape import TapeDriveParameters

        slow = TapeDriveParameters(compression_ratio=0.0)
        fast = TapeDriveParameters(compression_ratio=0.5)
        slow_stats = method_by_symbol("DT-NB").run(
            spec_for(small_r, small_s, tape_params_r=slow, tape_params_s=slow)
        )
        fast_stats = method_by_symbol("DT-NB").run(
            spec_for(small_r, small_s, tape_params_r=fast, tape_params_s=fast)
        )
        assert fast_stats.response_s < slow_stats.response_s
        # ... but its overhead versus the (also faster) optimum grows,
        # the effect behind Figures 10/11.
        assert fast_stats.join_overhead > slow_stats.join_overhead
