"""Observability layer against the real simulator and join methods.

The load-bearing checks: a rigged two-device run whose utilization must
equal the analytical transfer-time ratio, proof that tracing never
perturbs the simulation, the Figure-4 parity between the generic metrics
layer and the formerly bespoke derivation, and the paper's concurrency
claims measured on traced joins.
"""

import pytest

from repro.core.registry import method_by_symbol
from repro.core.spec import JoinSpec
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.obs.metrics import buffer_utilization, device_utilization, overlap_fraction
from repro.obs.recorder import JoinObserver
from repro.storage.block import BlockSpec
from repro.storage.bus import Bus
from repro.storage.tape import TapeDrive, TapeDriveParameters, TapeVolume
from repro.sweep.serialize import stats_to_dict

from tests.storage.test_tape import chunk_of


def run_traced(symbol, small_r, small_s, **kwargs):
    spec = JoinSpec(
        small_r, small_s, memory_blocks=10.0, disk_blocks=130.0,
        trace_devices=True, **kwargs,
    )
    return method_by_symbol(symbol).run(spec)


class TestRiggedTwoDeviceRun:
    """Utilization must equal analytical transfer time / response time."""

    def rig(self, sim):
        spec = BlockSpec()
        params = TapeDriveParameters(
            native_rate_mb_s=1.0, compression_ratio=0.0,
            reposition_s=0.0, stop_start_penalty_s=0.0,
        )
        observer = JoinObserver()
        drives, files = [], []
        for name, n_blocks in (("tape_r", 20.0), ("tape_s", 10.0)):
            drive = TapeDrive(sim, name, Bus(sim, f"bus-{name}"), spec, params)
            drive.observer = observer
            volume = TapeVolume(f"vol-{name}", 100.0)
            tape_file = volume.create_file("data")
            tape_file._append(chunk_of(n_blocks))
            drive.load(volume)
            drives.append(drive)
            files.append(tape_file)
        transfer_s = [
            spec.bytes_from_blocks(f.n_blocks) / params.rate_bytes_s for f in files
        ]
        return observer, drives, files, transfer_s

    def test_serial_utilization_matches_analytical(self, sim):
        observer, (drive_a, drive_b), (file_a, file_b), (t_a, t_b) = self.rig(sim)

        def serial():
            yield from drive_a.read_file(file_a)
            yield from drive_b.read_file(file_b)

        sim.run(sim.process(serial()))
        assert sim.now == pytest.approx(t_a + t_b)
        util = device_utilization(observer, (0.0, sim.now))
        assert util["tape_r"] == pytest.approx(t_a / (t_a + t_b))
        assert util["tape_s"] == pytest.approx(t_b / (t_a + t_b))
        assert overlap_fraction(
            observer, ["tape_r"], ["tape_s"], (0.0, sim.now)
        ) == 0.0

    def test_concurrent_utilization_and_full_overlap(self, sim):
        observer, (drive_a, drive_b), (file_a, file_b), (t_a, t_b) = self.rig(sim)
        procs = [
            sim.process(drive_a.read_file(file_a)),
            sim.process(drive_b.read_file(file_b)),
        ]
        sim.run(sim.all_of(procs))
        assert sim.now == pytest.approx(max(t_a, t_b))
        util = device_utilization(observer, (0.0, sim.now))
        assert util["tape_r"] == pytest.approx(t_a / sim.now)
        assert util["tape_s"] == pytest.approx(t_b / sim.now)
        # The lighter drive runs entirely under the heavier one.
        assert overlap_fraction(
            observer, ["tape_r"], ["tape_s"], (0.0, sim.now)
        ) == pytest.approx(1.0)


class TestTracingIsPurelyObservational:
    def test_traced_run_is_time_identical(self, small_r, small_s):
        untraced = method_by_symbol("CDT-GH").run(
            JoinSpec(small_r, small_s, memory_blocks=10.0, disk_blocks=130.0)
        )
        traced = run_traced("CDT-GH", small_r, small_s)
        assert traced.response_s == untraced.response_s
        assert traced.step1_s == untraced.step1_s
        assert traced.disk_read_blocks == untraced.disk_read_blocks
        assert traced.tape_repositions == untraced.tape_repositions

    def test_untraced_run_has_no_summary(self, small_r, small_s):
        stats = method_by_symbol("CDT-GH").run(
            JoinSpec(small_r, small_s, memory_blocks=10.0, disk_blocks=130.0)
        )
        assert stats.obs_summary is None
        assert stats.observer is None

    def test_traced_stats_carry_summary(self, small_r, small_s):
        stats = run_traced("CDT-GH", small_r, small_s)
        assert stats.obs_summary["window_s"] == [0.0, stats.response_s]
        assert stats.observer is not None

    def test_sweep_serialization_never_includes_observability(
        self, small_r, small_s
    ):
        # Cache keys and cached payloads must stay byte-stable whether or
        # not a run was traced.
        stats = run_traced("CDT-GH", small_r, small_s)
        payload = stats_to_dict(stats)
        assert "obs_summary" not in payload
        assert "observer" not in payload
        assert "observability" not in payload


class TestTracedJoinMetrics:
    def test_step_spans_cover_the_run(self, small_r, small_s):
        stats = run_traced("CDT-GH", small_r, small_s)
        steps = {s.name: s for s in stats.observer.spans_in("step")}
        assert steps["Step I"].start_s == 0.0
        assert steps["Step I"].end_s == pytest.approx(stats.step1_s)
        assert steps["Step II"].end_s == pytest.approx(stats.response_s)

    def test_utilization_is_a_fraction(self, small_r, small_s):
        stats = run_traced("CDT-GH", small_r, small_s)
        util = stats.obs_summary["device_utilization"]
        assert set(util) >= {"tape_r", "tape_s", "disk0", "disk1"}
        assert all(0.0 <= value <= 1.0 for value in util.values())

    def test_concurrent_method_overlaps_tape_with_disk(self, small_r, small_s):
        serial = run_traced("DT-NB", small_r, small_s)
        concurrent = run_traced("CDT-GH", small_r, small_s)
        # DT methods strictly alternate tape and disk; CDT methods stream
        # tape against disk activity — the distinction the paper draws.
        assert serial.obs_summary["tape_disk_overlap_fraction"] == 0.0
        assert concurrent.obs_summary["tape_disk_overlap_fraction"] > 0.5

    def test_disk_array_stays_balanced(self, small_r, small_s):
        stats = run_traced("CDT-GH", small_r, small_s)
        assert stats.obs_summary["disk_balance"] > 0.9

    def test_bucket_units_are_spanned(self, small_r, small_s):
        stats = run_traced("CDT-GH", small_r, small_s)
        assert stats.obs_summary["spans"]["n_units"] > 0
        assert stats.obs_summary["spans"]["n_units"] == len(
            stats.observer.spans_in("unit")
        )

    def test_queue_depths_are_sampled(self, small_r, small_s):
        stats = run_traced("CDT-GH", small_r, small_s)
        assert "disk0" in stats.obs_summary["queue_depth_max"]

    def test_fault_retries_are_spanned(self, small_r, small_s):
        stats = run_traced(
            "CDT-GH", small_r, small_s,
            fault_plan=FaultPlan.uniform(rate=0.002, seed=3),
            retry_policy=RetryPolicy(),
        )
        if stats.fault_retries:  # the plan's streams decide, not us
            assert stats.obs_summary["spans"]["n_fault_retries"] > 0
            assert stats.obs_summary["counters"]["fault_retries"] == (
                pytest.approx(stats.obs_summary["spans"]["n_fault_retries"])
            )


class TestFigure4Parity:
    def test_generic_layer_matches_bespoke_derivation(self, small_r, small_s):
        # The pre-refactor bespoke loop, verbatim, as the reference.
        stats = run_traced("CTT-GH", small_r, small_s)
        capacity = 130.0
        observer = stats.observer
        total = observer.series["s_buffer.total"]
        even = observer.series["s_buffer.even"]
        odd = observer.series["s_buffer.odd"]
        window = (stats.step1_s, stats.response_s)
        times, total_pct, even_pct, odd_pct = [], [], [], []
        for t, value in zip(total.times, total.values):
            if not window[0] <= t <= window[1]:
                continue
            times.append(t)
            total_pct.append(100.0 * value / capacity)
            even_pct.append(100.0 * even.value_at(t) / capacity)
            odd_pct.append(100.0 * odd.value_at(t) / capacity)
        reference = {
            "times_s": times,
            "total_pct": total_pct,
            "even_pct": even_pct,
            "odd_pct": odd_pct,
            "step2_window_s": list(window),
            "mean_total_pct": 100.0
            * total.time_average(window[0], window[1])
            / capacity,
        }

        generic = buffer_utilization(observer, "s_buffer", capacity, window)
        assert generic["times_s"] == reference["times_s"]
        assert generic["total_pct"] == reference["total_pct"]
        assert generic["even_pct"] == reference["even_pct"]
        assert generic["odd_pct"] == reference["odd_pct"]
        assert generic["mean_total_pct"] == pytest.approx(
            reference["mean_total_pct"], rel=0.01
        )
        assert generic["mean_total_pct"] > 0.0
