"""Automated tape library (robot) model.

The paper notes media exchanges cost roughly 30 seconds and are negligible
against multi-hour transfers; its joins assume tapes are pre-loaded, so a
single join loads its volumes straight into the drives.  The multi-join
service's broker and the media-exchange check of
:mod:`repro.experiments.assumptions` mount through this robot, which
charges exactly that exchange latency.
"""

from __future__ import annotations

import math
import typing

from repro.simulator.engine import Simulator
from repro.storage.tape import TapeDrive, TapeVolume


class TapeLibrary:
    """A robot with a shelf of volumes and an exchange arm."""

    def __init__(self, sim: Simulator, exchange_s: float = 30.0):
        if not (exchange_s >= 0 and math.isfinite(exchange_s)):
            raise ValueError("exchange time must be finite and non-negative")
        self.sim = sim
        self.exchange_s = exchange_s
        self.shelf: dict[str, TapeVolume] = {}
        self.exchanges = 0

    def add_volume(self, volume: TapeVolume) -> TapeVolume:
        """Place a volume on the shelf."""
        if volume.name in self.shelf:
            raise ValueError(f"volume {volume.name!r} already shelved")
        self.shelf[volume.name] = volume
        return volume

    def mount(self, drive: TapeDrive, volume_name: str) -> typing.Generator:
        """Load ``volume_name`` into ``drive``, unloading any current media.

        A generator: charges one exchange per media movement, and a
        rewind first when the outgoing cartridge's head is past block 0
        (a cartridge is unloaded at its beginning).  Mounting the volume
        the drive already holds is free.  Unknown volumes are
        rejected eagerly (before simulation time passes).
        """
        already_there = drive.volume is not None and drive.volume.name == volume_name
        if volume_name not in self.shelf and not already_there:
            raise KeyError(f"volume {volume_name!r} not on the shelf")
        return self._mount(drive, volume_name)

    def _mount(self, drive: TapeDrive, volume_name: str) -> typing.Generator:
        if drive.volume is not None:
            if drive.volume.name == volume_name:
                return drive.volume
            rewind_s = drive.params.rewind_s if drive.position > 0.0 else 0.0
            returned = drive.unload()
            self.shelf[returned.name] = returned
            self.exchanges += 1
            yield self.sim.timeout(rewind_s + self.exchange_s)
        volume = self.shelf.pop(volume_name)
        self.exchanges += 1
        yield self.sim.timeout(self.exchange_s + drive.params.load_s)
        drive.load(volume)
        return volume
