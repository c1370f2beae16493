"""Paper extensions: local-output cost (§3.2) and READ REVERSE (footnote 2)."""

import dataclasses

import pytest

from repro.core.registry import method_by_symbol
from repro.core.spec import JoinSpec
from repro.costmodel.formulas import estimate
from repro.costmodel.parameters import SystemParameters
from repro.relational.join_core import reference_join
from repro.storage.block import BlockSpec, DataChunk
from repro.storage.bus import Bus
from repro.storage.tape import TapeDrive, TapeDriveParameters, TapeVolume


def _derated(spec: JoinSpec) -> JoinSpec:
    """``spec`` with 40 % of the disk bandwidth taken by local output."""
    p = spec.disk_params
    return dataclasses.replace(
        spec, disk_params=dataclasses.replace(p, transfer_rate_mb_s=0.6 * p.transfer_rate_mb_s)
    )


class TestLocalOutputMode:
    """§3.2's locally stored output is a derated ``disk_params``."""

    def test_local_output_slows_the_join_but_stays_correct(self, small_r, small_s):
        expected = reference_join(small_r, small_s)
        spec = JoinSpec(small_r, small_s, memory_blocks=10.0, disk_blocks=120.0)
        piped = method_by_symbol("CDT-GH").run(spec)
        local = method_by_symbol("CDT-GH").run(_derated(spec))
        assert local.output == expected
        assert local.response_s > piped.response_s

    def test_cost_model_sees_the_derated_rate(self, small_r, small_s):
        piped = JoinSpec(small_r, small_s, memory_blocks=10.0, disk_blocks=120.0)
        slow = estimate("CDT-GH", SystemParameters.from_spec(_derated(piped)))
        fast = estimate("CDT-GH", SystemParameters.from_spec(piped))
        assert slow.total_s > fast.total_s


class TestReadReverse:
    def _drive(self, sim, reverse: bool):
        params = TapeDriveParameters(supports_read_reverse=reverse)
        drive = TapeDrive(sim, "t", Bus(sim, "b"), BlockSpec(), params)
        import numpy as np

        volume = TapeVolume("v", 1000.0)
        data = volume.create_file("data")
        data._append(DataChunk.from_keys(np.arange(1000), 10))
        drive.load(volume)
        return drive, data

    def test_reverse_read_at_head_needs_no_reposition(self, sim):
        drive, data = self._drive(sim, reverse=True)

        def flow():
            yield from drive.read_range(data, 0.0, 50.0)   # head at 50
            yield from drive.read_range(data, 40.0, 10.0)  # ends at head: reverse
            assert drive.position == pytest.approx(40.0)

        sim.run(sim.process(flow()))
        assert drive.repositions == 0

    def test_without_support_the_same_pattern_repositions(self, sim):
        drive, data = self._drive(sim, reverse=False)

        def flow():
            yield from drive.read_range(data, 0.0, 50.0)
            yield from drive.read_range(data, 40.0, 10.0)

        sim.run(sim.process(flow()))
        assert drive.repositions == 1

    def test_bidirectional_scans_reduce_tt_gh_repositions(self, small_r, small_s):
        """TT-GH rescans R and S repeatedly on drives that only read; with
        READ REVERSE, alternating-direction scans skip the rewinds."""
        expected = reference_join(small_r, small_s)
        forward = method_by_symbol("TT-GH").run(
            JoinSpec(small_r, small_s, memory_blocks=10.0, disk_blocks=14.0)
        )
        bidi_params = TapeDriveParameters(supports_read_reverse=True)
        bidirectional = method_by_symbol("TT-GH").run(
            JoinSpec(small_r, small_s, memory_blocks=10.0, disk_blocks=14.0,
                     tape_params_r=bidi_params, tape_params_s=bidi_params)
        )
        assert bidirectional.output == expected
        assert bidirectional.tape_repositions < forward.tape_repositions
        assert bidirectional.response_s <= forward.response_s + 1e-6

    def test_reverse_scan_collects_identical_data(self, sim):
        from repro.core.base import scan_tape
        from repro.core.spec import scan_bounds

        drive, data = self._drive(sim, reverse=True)
        collected = {"forward": [], "reverse": []}

        def scan(direction, reverse):
            def consume(chunk):
                collected[direction].extend(chunk.keys.tolist())
                return
                yield  # pragma: no cover - generator shape

            class _Env:  # scan_tape only touches env.sim
                pass

            env = _Env()
            env.sim = sim
            reads = scan_bounds(0.0, 100.0, 7.0, reverse=reverse)
            yield from scan_tape(env, drive, data, reads, consume, False)

        sim.run(sim.process(scan("forward", False)))
        sim.run(sim.process(scan("reverse", True)))
        assert sorted(collected["forward"]) == sorted(collected["reverse"])
        assert collected["forward"] != collected["reverse"]
