"""Validation of the cost model's simplifying assumptions (Section 3.2).

The paper's transfer-only model rests on three claims it asserts rather
than measures.  Each function here checks one of them against the
simulated hardware's parameters, so the claims become checkable
artifacts:

* :func:`media_exchange_share` — "tape switch delays (roughly 30 seconds
  per media exchange) [are] negligible compared to the transfer time of a
  full tape": scan a relation striped over several cartridges through the
  robot and report the fraction of time spent exchanging media.
* :func:`disk_positioning_share` — "disk seeks and rotational latency
  play a relatively minor role compared to transfer cost when disk
  requests are at least moderately large [>= 30 blocks]": the
  positioning share of a worst-case scan at one request size, computed
  in closed form from the ``DiskParameters`` (no disk is simulated).
* :func:`locate_model_sensitivity` — the constant-locate simplification:
  run CTT-GH with a distance-based locate model and report how much the
  response moves (the join's tape pattern is mostly sequential, so it
  should barely move).
"""

from __future__ import annotations

import dataclasses
import typing

from repro.core.registry import method_by_symbol
from repro.core.requirements import clamp_gh_memory
from repro.core.spec import JoinSpec
from repro.experiments.config import BASE_TAPE, ExperimentScale
from repro.simulator.engine import Simulator
from repro.storage.block import BlockSpec
from repro.storage.disk import DiskParameters
from repro.storage.hierarchy import StorageConfig, StorageSystem
from repro.storage.library import TapeLibrary
from repro.storage.tape import TapeDriveParameters, TapeVolume
from repro.sweep.runner import Sweep, SweepRunner
from repro.sweep.tasks import assumption_task


@dataclasses.dataclass(frozen=True)
class ExchangeShare:
    """Outcome of the media-exchange negligibility measurement."""

    n_volumes: int
    total_s: float
    exchange_s: float

    @property
    def share(self) -> float:
        """Fraction of the scan spent exchanging media."""
        return self.exchange_s / self.total_s


def media_exchange_share(
    relation_mb: float = 40960.0,
    n_volumes: int = 2,
    exchange_s: float = 30.0,
    tape: TapeDriveParameters = BASE_TAPE,
) -> ExchangeShare:
    """Scan a relation striped over ``n_volumes`` cartridges via the robot.

    The defaults model the paper's setting: DLT-4000 cartridges in "20 GB
    density mode", each several hours to read end to end.  A mount's
    whole time counts as exchange time: the robot's exchanges, the load,
    and the rewind of a cartridge read to its end.
    """
    if n_volumes < 1:
        raise ValueError("need at least one volume")
    spec = BlockSpec()
    sim = Simulator()
    drive = StorageSystem(sim, StorageConfig(spec=spec, tape_params_r=tape)).drive_r
    library = TapeLibrary(sim, exchange_s=exchange_s)
    segment_blocks = spec.blocks_from_mb(relation_mb) / n_volumes

    from repro.relational.datagen import uniform_relation

    segment = uniform_relation("seg", relation_mb / n_volumes, tuple_bytes=8192, spec=spec)
    for index in range(n_volumes):
        volume = TapeVolume(f"part{index}", segment_blocks + 1.0)
        volume.record("data", segment.as_chunk())
        library.add_volume(volume)

    exchange_time = [0.0]

    def scan():
        for index in range(n_volumes):
            before = sim.now
            yield from library.mount(drive, f"part{index}")
            exchange_time[0] += sim.now - before
            yield from drive.read_file(drive.volume.file("data"))

    sim.run(sim.process(scan()))
    return ExchangeShare(n_volumes, sim.now, exchange_time[0])


@dataclasses.dataclass(frozen=True)
class PositioningShare:
    """Positioning share of a disk scan at one request size."""

    request_blocks: float
    total_s: float
    positioning_s: float

    @property
    def share(self) -> float:
        """Fraction of the scan spent seeking/rotating."""
        return self.positioning_s / self.total_s


def disk_positioning_share(
    scan_mb: float = 100.0,
    request_blocks: float = 30.0,
    params: DiskParameters = DiskParameters(),
) -> PositioningShare:
    """Price a scan of ``scan_mb`` in fixed-size requests with a full
    positioning delay before each one.

    Models the worst case for the paper's claim: every request pays a full
    reposition (as interleaved workloads force), so the share is an upper
    bound for sequential scans.  The result is closed-form from
    ``params``; no simulated disk runs.
    """
    if request_blocks <= 0:
        raise ValueError("request size must be positive")
    spec = BlockSpec()
    n_requests = spec.blocks_from_mb(scan_mb) / request_blocks
    transfer_s = scan_mb * 1024 * 1024 / params.rate_bytes_s
    positioning_s = n_requests * params.positioning_s
    return PositioningShare(request_blocks, transfer_s + positioning_s, positioning_s)


@dataclasses.dataclass(frozen=True)
class LocateSensitivity:
    """CTT-GH response under constant vs distance-based locate costs."""

    constant_s: float
    distance_s: float

    @property
    def relative_change(self) -> float:
        """Fractional response-time change from the richer locate model."""
        return self.distance_s / self.constant_s - 1.0


def locate_model_sensitivity(
    locate_s_per_gb: float = 10.0,
    scale: ExperimentScale = ExperimentScale(scale=0.25, tuple_bytes=8192),
) -> LocateSensitivity:
    """Run a scaled CTT-GH join under both locate models."""
    r, s = scale.relations(500.0, 1000.0)
    memory = clamp_gh_memory(scale.blocks(16.0), r.n_blocks)
    disk = scale.blocks(100.0)

    def response(tape_params: TapeDriveParameters) -> float:
        spec = JoinSpec(
            r, s, memory_blocks=memory, disk_blocks=disk,
            tape_params_r=tape_params, tape_params_s=tape_params,
        )
        return method_by_symbol("CTT-GH").run(spec).response_s

    constant = response(BASE_TAPE)
    distance = response(
        dataclasses.replace(BASE_TAPE, locate_s_per_gb=locate_s_per_gb)
    )
    return LocateSensitivity(constant, distance)


#: The Section 3.2 checks by ``assumption`` task name, in the order
#: listed above.  Each signature holds the check's defaults.
CHECKS = {
    "media_exchange": media_exchange_share,
    "disk_positioning": disk_positioning_share,
    "locate_sensitivity": locate_model_sensitivity,
}


class AssumptionChecks(typing.NamedTuple):
    """The three Section 3.2 measurements, in the order listed above."""

    exchange: ExchangeShare
    positioning: PositioningShare
    locate: LocateSensitivity

    def render(self) -> str:
        """One line per check."""
        return "\n".join(
            [
                "Section 3.2 assumption checks:",
                f"  media exchanges over full cartridges: "
                f"{100 * self.exchange.share:.2f} % "
                f"of a {self.exchange.n_volumes}-volume scan",
                f"  disk positioning at 30-block requests: "
                f"{100 * self.positioning.share:.2f} % of a worst-case scan",
                f"  distance-based locate model moves CTT-GH by "
                f"{100 * self.locate.relative_change:+.2f} %",
            ]
        )

    def to_dict(self) -> dict:
        """JSON-serializable form: each measurement's fields."""
        return {
            "media_exchange": dataclasses.asdict(self.exchange),
            "disk_positioning": dataclasses.asdict(self.positioning),
            "locate_sensitivity": dataclasses.asdict(self.locate),
        }


def assumption_sweep() -> Sweep:
    """The three measurements as ``assumption`` sweep tasks, so checks
    are cached and parallelized like any other sweep point."""
    return Sweep(
        [assumption_task(check) for check in CHECKS],
        lambda results: AssumptionChecks(
            ExchangeShare(**results[0]["data"]),
            PositioningShare(**results[1]["data"]),
            LocateSensitivity(**results[2]["data"]),
        ),
    )


def run_assumption_checks(runner: SweepRunner | None = None) -> AssumptionChecks:
    """All three Section 3.2 measurements, through the sweep engine."""
    return assumption_sweep().run(runner)
