"""The cost model's Section 3.2 assumptions must hold on our hardware model."""

import dataclasses

import pytest

from repro.experiments.assumptions import (
    disk_positioning_share,
    locate_model_sensitivity,
    media_exchange_share,
)
from repro.experiments.config import BASE_TAPE, DISK_LIGHTNING, SLOW_TAPE
from repro.storage.tape import TapeDriveParameters


class TestMediaExchanges:
    def test_exchanges_are_negligible_for_full_tapes(self):
        """'Tape switch delays ... negligible compared to the transfer
        time of a full tape (several hours)' — 20 GB DLT cartridges."""
        result = media_exchange_share()
        assert result.share < 0.02

    def test_small_cartridges_make_exchanges_visible(self):
        """The assumption is about full tapes — chopping the data into
        tiny cartridges breaks it, as the model should show."""
        coarse = media_exchange_share()
        shredded = media_exchange_share(relation_mb=100.0, n_volumes=20)
        assert shredded.share > 5 * coarse.share

    def test_validation(self):
        with pytest.raises(ValueError):
            media_exchange_share(n_volumes=0)


class TestDiskPositioning:
    def test_thirty_block_requests_make_seeks_minor(self):
        """'Seek and latency costs [are] negligible' at >= 30 blocks."""
        result = disk_positioning_share(request_blocks=30.0)
        assert result.share < 0.05

    def test_tiny_requests_are_dominated_by_positioning(self):
        result = disk_positioning_share(request_blocks=1.0)
        assert result.share > 0.3

    def test_share_falls_with_request_size(self):
        shares = [
            disk_positioning_share(request_blocks=n).share for n in (1.0, 8.0, 30.0, 120.0)
        ]
        assert shares == sorted(shares, reverse=True)

    def test_validation(self):
        with pytest.raises(ValueError):
            disk_positioning_share(request_blocks=0.0)


class TestLocateModel:
    def test_sequential_joins_barely_notice_distance_locates(self):
        """CTT-GH's tape pattern is mostly sequential, so swapping the
        constant locate for a distance-based one moves the response by
        only a few percent — justifying the paper's simplification."""
        result = locate_model_sensitivity(locate_s_per_gb=10.0)
        assert 0.0 <= result.relative_change < 0.08

    def test_distance_term_charges_by_head_travel(self, sim):
        from repro.storage.block import BlockSpec, DataChunk
        from repro.storage.bus import Bus
        from repro.storage.tape import TapeDrive, TapeVolume
        import numpy as np

        params = dataclasses.replace(BASE_TAPE, locate_s_per_gb=100.0)
        drive = TapeDrive(sim, "t", Bus(sim, "b"), BlockSpec(), params)
        volume = TapeVolume("v", 50000.0)
        data = volume.create_file("data")
        data._append(DataChunk.from_keys(np.arange(200), 10))  # 20 blocks
        big = volume.create_file("far")
        big._append(DataChunk.from_keys(np.arange(200), 0.01))  # 20000 blocks

        drive.load(volume)

        def near_then_far():
            yield from drive.read_range(data, 0.0, 1.0)
            start = sim.now
            # Jump ~20000 blocks (~1.9 GB) to the far file's end region.
            yield from drive.read_range(big, 19000.0, 1.0)
            return sim.now - start

        elapsed = sim.run(sim.process(near_then_far()))
        base_cost = params.reposition_s + 1.0 * 100 * 1024 / params.rate_bytes_s
        distance_gb = (19000 + 20 - 1) * 100 * 1024 / (1024**3)
        assert elapsed == pytest.approx(base_cost + 100.0 * distance_gb, rel=1e-3)


class TestAssumptionTasks:
    """A check's overrides travel through a sweep payload as plain dicts
    and come back as the parameter objects the check was called with."""

    @pytest.mark.parametrize(
        "check,kwargs",
        [
            ("disk_positioning", dict(request_blocks=8.0, params=DISK_LIGHTNING)),
            ("media_exchange", dict(relation_mb=100.0, n_volumes=3, tape=SLOW_TAPE)),
        ],
    )
    def test_overrides_survive_the_payload(self, check, kwargs):
        import json

        from repro.experiments.assumptions import CHECKS
        from repro.sweep import execute_task
        from repro.sweep.tasks import assumption_task

        task = assumption_task(check, **kwargs)
        payload = json.loads(json.dumps(task.payload))
        result = execute_task(task.kind, payload)
        assert result["data"] == dataclasses.asdict(CHECKS[check](**kwargs))

    def test_unknown_check_is_rejected(self):
        from repro.sweep.tasks import assumption_task

        with pytest.raises(KeyError, match="locate_sensitivity"):
            assumption_task("seek_time")
