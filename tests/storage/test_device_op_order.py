"""Same-instant ordering of multi-device I/O against a competing request.

Requests issued at one simulated instant are served in the order the
event queue reaches them, and that order decides arm hand-off and with it
every positioning charge.  Each case below runs one multi-device I/O path
(a striped ``read_range``, a ``write_burst``, a multi-disk
``read_chunks`` and an overlapped ``scan_tape`` prefetch) while a rival
requests disk 0 (and a second one the tape drive) at the same instant,
after ``hops`` zero-delay queue round trips.  The rivals wake either
one step after the caller starts or right after one of the I/O's unit
releases, so the logs pin how many queue hops the I/O takes to start its
device ops and to resume its caller.  Right after the I/O the caller
itself requests disk 0 again.

Every unit grant and release is logged as ``(event, device, requester,
time)``; the expected logs were recorded on the commit before striped
I/O and tape prefetch stopped running as one process per device.

The same cases also run under two fault plans.  A rate-0 plan must give
the fault-free logs exactly.  A seeded plan adds the injector's
verdicts (stalls and errors) and every operation the retry policy gave
up on; its digests were recorded while faulty device ops still ran the
retry loop as a generator, inside one process per disk or prefetch.
"""

import collections
import hashlib
import types

import numpy as np
import pytest

from repro.api import run_join
from repro.core.base import scan_tape
from repro.core.environment import JoinEnvironment
from repro.core.spec import scan_bounds
from repro.experiments.config import ExperimentScale
from repro.faults import DiskTransientError, FaultInjector, RetryExhaustedError
from repro.faults.plan import FaultPlan
from repro.faults.policy import RetryPolicy
from repro.simulator.engine import Simulator
from repro.simulator.events import Event
from repro.simulator.process import Process
from repro.simulator.resources import Unit
from repro.storage.block import BlockSpec, DataChunk
from repro.storage.bus import Bus
from repro.storage.disk import Disk
from repro.storage.disk_array import DiskArray
from repro.storage.tape import TapeDrive, TapeVolume

MB = 1024 * 1024

#: The fault plans the ordering cases also run under.  ``seeded`` is
#: chosen so that the logs hold stalls, retries that succeed and
#: operations the policy gives up on.
FAULT_PLANS = {
    "rate0": FaultPlan(),
    "seeded": FaultPlan(
        seed=298, disk_error_rate=0.3, tape_read_error_rate=0.3, stall_rate=0.3
    ),
}
FAULT_POLICY = RetryPolicy(max_retries=1, backoff_s=0.5)


def chunk_of(n_blocks, start=0, tpb=10):
    return DataChunk.from_keys(np.arange(start, start + round(n_blocks * tpb)), tpb)


class Rig:
    """Three disks in an array and one tape drive on a 10 MB/s bus.

    Given ``monkeypatch``, logs every grant and release.  ``wake_after``
    names a release (by its index among the releases); right after it,
    :attr:`signal` triggers and the rivals wake.  Given ``plan``, every
    device runs under a fault injector, and the log also records each
    verdict that is not None.
    """

    def __init__(self, monkeypatch=None, wake_after=None, plan=None):
        self.sim = sim = Simulator()
        spec = BlockSpec()
        bus = Bus(sim, "scsi", 10 * MB)
        self.disks = [Disk(sim, f"d{i}", bus, spec, 1000.0) for i in range(3)]
        self.array = DiskArray(sim, self.disks, stripe_threshold_blocks=2.0)
        self.drive = TapeDrive(sim, "tape", bus, spec)
        volume = TapeVolume("vol", 1000.0)
        self.drive.load(volume)
        self.file = volume.create_file("data")
        self.file._append(chunk_of(6.0))
        self.signal = sim.event()
        self.log = log = []
        if plan is not None:
            injector = FaultInjector(sim, FAULT_PLANS[plan], FAULT_POLICY)
            injector.attach(types.SimpleNamespace(devices=[*self.disks, self.drive], buses=[bus]))
        if monkeypatch is None:
            return
        if plan is not None:

            def logged_decide(injector, device, kind, _decide=FaultInjector.decide):
                verdict = _decide(injector, device, kind)
                if verdict is not None:
                    log.append((verdict, device, kind, sim.now))
                return verdict

            monkeypatch.setattr(FaultInjector, "decide", logged_decide)
        units = {device.unit: device.name for device in (*self.disks, self.drive)}
        releases = []

        for cls in (Disk, TapeDrive):

            def logged_lead_in(device, where, n_blocks, near, _lead_in=cls._lead_in):
                log.append(("grant", device.name, getattr(where, "name", where), sim.now))
                return _lead_in(device, where, n_blocks, near)

            monkeypatch.setattr(cls, "_lead_in", logged_lead_in)

        def logged_release(unit, _release=Unit.release):
            log.append(("release", units[unit], None, sim.now))
            _release(unit)
            releases.append(sim.now)
            if len(releases) - 1 == wake_after:
                self.signal.succeed()

        monkeypatch.setattr(Unit, "release", logged_release)

    def rival(self, device, where, hops, wait):
        """Request ``device`` ``hops`` queue hops after waking."""
        if wait:
            yield self.signal
        for _ in range(hops):
            yield self.sim.timeout(0)
        kind = "disk-read" if device is not self.drive else "tape-read"
        if (yield from self.attempt(device._io(where, 1.0, kind), "rival")):
            self.log.append(("rival-done", device.name, None, self.sim.now))

    def attempt(self, io, who):
        """Run ``io``; log an operation the retry policy gave up on."""
        try:
            yield from io
        except RetryExhaustedError as exc:
            self.log.append(("gave-up", exc.device, who, self.sim.now))
            return False
        return True


def striped_read(rig):
    extent = rig.array.allocate("striped")
    rig.array.install(extent, chunk_of(12.0))
    yield from rig.array.read_range(extent, 0.0, 12.0)


def write_burst(rig):
    extents = [rig.array.allocate(f"bucket{i}") for i in range(2)]
    writes = [(extents[i % 2], chunk_of(1.0, start=100 * i)) for i in range(5)]
    writes = [(extent, chunk.keys, chunk.n_blocks) for extent, chunk in writes]
    yield from rig.array.write_burst(writes)


def read_chunks(rig):
    extent = rig.array.allocate("chunks")
    for i in range(3):
        rig.array.install(extent, chunk_of(3.0, start=100 * i))
    yield from rig.array.read_chunks(extent, list(extent.live_chunks()), consume=False)


def tape_prefetch(rig):
    target = types.SimpleNamespace(name="consume")

    def consume(data):
        yield from rig.disks[0]._io(target, data.n_blocks, "disk-write")

    env = types.SimpleNamespace(sim=rig.sim, faults=None)
    reads = scan_bounds(0.0, 6.0, 2.0)
    yield from scan_tape(env, rig.drive, rig.file, reads, consume, overlap=True)


PATHS = {
    "read_range": striped_read,
    "write_burst": write_burst,
    "read_chunks": read_chunks,
    "scan_tape": tape_prefetch,
}


def run_case(path, wake=None, hops=0, plan=None):
    """The log of ``path`` against rivals on disk 0 and the tape drive.

    ``wake`` is None (no rivals), ``"start"`` (the rivals start one step
    after the caller) or the index of the release after which they wake.
    ``plan`` names one of :data:`FAULT_PLANS` (None: fault-free).
    """
    with pytest.MonkeyPatch.context() as patch:
        rig = Rig(patch, wake_after=None if wake in (None, "start") else wake, plan=plan)
        sim = rig.sim

        def caller():
            if (yield from rig.attempt(PATHS[path](rig), "caller")):
                rig.log.append(("io-done", None, None, sim.now))
            after = rig.disks[0]._io(types.SimpleNamespace(name="after"), 1.0, "disk-read")
            yield from rig.attempt(after, "after")

        main = sim.process(caller())
        if wake is not None:
            rival_to = types.SimpleNamespace(name="rival")
            sim.process(rig.rival(rig.disks[0], rival_to, hops, wake != "start"))
            sim.process(rig.rival(rig.drive, 5.0, hops, wake != "start"))
        sim.run(main)
        sim.run()
        return rig.log


#: Full logs with the rivals starting one step after the caller.
EXPECTED_AT_START = {
    "read_range": [
        ("grant", "d0", "rival", 0.0),
        ("grant", "tape", 5.0, 0.0),
        ("grant", "d1", "striped", 0.0),
        ("grant", "d2", "striped", 0.0),
        ("release", "d0", None, 0.045896875000000004),
        ("rival-done", "d0", None, 0.045896875000000004),
        ("grant", "d0", "striped", 0.045896875000000004),
        ("release", "d1", None, 0.1329575),
        ("release", "d2", None, 0.1329575),
        ("release", "d0", None, 0.1774592857142857),
        ("io-done", None, None, 0.1774592857142857),
        ("grant", "d0", "after", 0.1774592857142857),
        ("release", "d0", None, 0.2219610714285714),
        ("release", "tape", None, 2.048828125),
        ("rival-done", "tape", None, 2.048828125),
    ],
    "write_burst": [
        ("grant", "d0", "rival", 0.0),
        ("grant", "tape", 5.0, 0.0),
        ("grant", "d1", "bucket1", 0.0),
        ("grant", "d2", "bucket0", 0.0),
        ("release", "d0", None, 0.045696875),
        ("rival-done", "d0", None, 0.045696875),
        ("grant", "d0", "bucket0", 0.045696875),
        ("release", "d1", None, 0.07836375),
        ("release", "d2", None, 0.07836375),
        ("release", "d0", None, 0.09096375),
        ("io-done", None, None, 0.09096375),
        ("grant", "d0", "after", 0.09096375),
        ("release", "d0", None, 0.1354655357142857),
        ("release", "tape", None, 2.048828125),
        ("rival-done", "tape", None, 2.048828125),
    ],
    "read_chunks": [
        ("grant", "d0", "rival", 0.0),
        ("grant", "tape", 5.0, 0.0),
        ("grant", "d1", "chunks", 0.0),
        ("grant", "d2", "chunks", 0.0),
        ("release", "d0", None, 0.045496875),
        ("rival-done", "d0", None, 0.045496875),
        ("grant", "d0", "chunks", 0.045496875),
        ("release", "d1", None, 0.111260625),
        ("release", "d2", None, 0.111260625),
        ("release", "d0", None, 0.1557624107142857),
        ("io-done", None, None, 0.1557624107142857),
        ("grant", "d0", "after", 0.1557624107142857),
        ("release", "d0", None, 0.2002641964285714),
        ("release", "tape", None, 2.048828125),
        ("rival-done", "tape", None, 2.048828125),
    ],
    "scan_tape": [
        ("grant", "d0", "rival", 0.0),
        ("grant", "tape", 5.0, 0.0),
        ("release", "d0", None, 0.044501785714285716),
        ("rival-done", "d0", None, 0.044501785714285716),
        ("release", "tape", None, 2.048828125),
        ("rival-done", "tape", None, 2.048828125),
        ("grant", "tape", 0.0, 2.048828125),
        ("release", "tape", None, 4.146484375),
        ("grant", "d0", "consume", 4.146484375),
        ("grant", "tape", 2.0, 4.146484375),
        ("release", "d0", None, 4.218887946428572),
        ("release", "tape", None, 4.244140625),
        ("grant", "d0", "consume", 4.244140625),
        ("grant", "tape", 4.0, 4.244140625),
        ("release", "d0", None, 4.299944196428571),
        ("release", "tape", None, 4.341796875),
        ("grant", "d0", "consume", 4.341796875),
        ("release", "d0", None, 4.397600446428571),
        ("io-done", None, None, 4.397600446428571),
        ("grant", "d0", "after", 4.397600446428571),
        ("release", "d0", None, 4.442102232142857),
    ],
}

#: sha256 of ``repr(log)`` for every wake point and hop count.
LOG_DIGESTS = {
    ("read_range", "start", 0): "6e6d8d1077e204bd7c57dcfba55baef589a7d618ab88cd023ba4a9b8660b47b8",
    ("read_range", "start", 1): "17ece839b245bbefb04a984dba0582eb22143f394a6e0f162c2f539e35581237",
    ("read_range", "start", 2): "17ece839b245bbefb04a984dba0582eb22143f394a6e0f162c2f539e35581237",
    ("read_range", 0, 0): "f010d5887a63974c39133df44db1d9581b4faf715c831a5f84b0c9705d57829f",
    ("read_range", 0, 1): "f010d5887a63974c39133df44db1d9581b4faf715c831a5f84b0c9705d57829f",
    ("read_range", 0, 2): "66cbead5e8adf87cd07c706f36582bf55a91d9bf32cd15797dff33c7fb7462e9",
    ("read_range", 1, 0): "f010d5887a63974c39133df44db1d9581b4faf715c831a5f84b0c9705d57829f",
    ("read_range", 1, 1): "f010d5887a63974c39133df44db1d9581b4faf715c831a5f84b0c9705d57829f",
    ("read_range", 1, 2): "66cbead5e8adf87cd07c706f36582bf55a91d9bf32cd15797dff33c7fb7462e9",
    ("read_range", 2, 0): "f010d5887a63974c39133df44db1d9581b4faf715c831a5f84b0c9705d57829f",
    ("read_range", 2, 1): "f010d5887a63974c39133df44db1d9581b4faf715c831a5f84b0c9705d57829f",
    ("read_range", 2, 2): "66cbead5e8adf87cd07c706f36582bf55a91d9bf32cd15797dff33c7fb7462e9",
    ("write_burst", "start", 0): "267f5225ab5a2aae79de2516b52bae028d6bdecc6258081817557a2f5d51b2c5",
    ("write_burst", "start", 1): "705fb02d59d721088bc32d51d211d0b908060e9adda3a3545f2483df605cf2a4",
    ("write_burst", "start", 2): "705fb02d59d721088bc32d51d211d0b908060e9adda3a3545f2483df605cf2a4",
    ("write_burst", 0, 0): "059c07c888b0c567040855455f42b14b1c7664417f2108a899bd065f7b4d1bb6",
    ("write_burst", 0, 1): "059c07c888b0c567040855455f42b14b1c7664417f2108a899bd065f7b4d1bb6",
    ("write_burst", 0, 2): "059c07c888b0c567040855455f42b14b1c7664417f2108a899bd065f7b4d1bb6",
    ("write_burst", 1, 0): "c638a4781a39bf5d9242a56823fd1ba4fa5c65308832cb0bfd32cadadbeae45d",
    ("write_burst", 1, 1): "c638a4781a39bf5d9242a56823fd1ba4fa5c65308832cb0bfd32cadadbeae45d",
    ("write_burst", 1, 2): "aa9092050ec399141e89183fd05a05fa81e436814b0adb1db1af4018c98636c9",
    ("write_burst", 2, 0): "c638a4781a39bf5d9242a56823fd1ba4fa5c65308832cb0bfd32cadadbeae45d",
    ("write_burst", 2, 1): "c638a4781a39bf5d9242a56823fd1ba4fa5c65308832cb0bfd32cadadbeae45d",
    ("write_burst", 2, 2): "aa9092050ec399141e89183fd05a05fa81e436814b0adb1db1af4018c98636c9",
    ("read_chunks", "start", 0): "c0718fdd315b316414cb33c11323e849f1bf901a0173263f369927c5942a3906",
    ("read_chunks", "start", 1): "921c8a179922a523e79175832b11cae8044d1a4a5201cffe655d15c9352052db",
    ("read_chunks", "start", 2): "921c8a179922a523e79175832b11cae8044d1a4a5201cffe655d15c9352052db",
    ("read_chunks", 0, 0): "07cb98041d9610ddf6d3cfcadabe8e497b096c92cb34143a2f1c5fb34bb47b6e",
    ("read_chunks", 0, 1): "07cb98041d9610ddf6d3cfcadabe8e497b096c92cb34143a2f1c5fb34bb47b6e",
    ("read_chunks", 0, 2): "82c11bc6a85834cdc137a6572b02e5f07306f1674f949c9c88df45f480c1f9eb",
    ("read_chunks", 1, 0): "07cb98041d9610ddf6d3cfcadabe8e497b096c92cb34143a2f1c5fb34bb47b6e",
    ("read_chunks", 1, 1): "07cb98041d9610ddf6d3cfcadabe8e497b096c92cb34143a2f1c5fb34bb47b6e",
    ("read_chunks", 1, 2): "82c11bc6a85834cdc137a6572b02e5f07306f1674f949c9c88df45f480c1f9eb",
    ("read_chunks", 2, 0): "07cb98041d9610ddf6d3cfcadabe8e497b096c92cb34143a2f1c5fb34bb47b6e",
    ("read_chunks", 2, 1): "07cb98041d9610ddf6d3cfcadabe8e497b096c92cb34143a2f1c5fb34bb47b6e",
    ("read_chunks", 2, 2): "82c11bc6a85834cdc137a6572b02e5f07306f1674f949c9c88df45f480c1f9eb",
    ("scan_tape", "start", 0): "b069978946a10d7faac863b297a44afb8d949a7b53eda47171a7c52cbeeb91f6",
    ("scan_tape", "start", 1): "f4f79b20fea3551c6cf2cc6319ed94760ffd626cfef2f8163a4bb6adf2f40ed3",
    ("scan_tape", "start", 2): "f4f79b20fea3551c6cf2cc6319ed94760ffd626cfef2f8163a4bb6adf2f40ed3",
    ("scan_tape", 0, 0): "845d95424585f898a279e506f6bc72237179c67106c2a09c5152c398ecbb3cca",
    ("scan_tape", 0, 1): "f7466bbe7a4b34cfc33d7188503e41e81dc5a3e3f3dd45db3a21447977a431fd",
    ("scan_tape", 0, 2): "87a15c9ca2a4e350c15a5f7cdcb716fbfc7ba4b4bc4b43194e96a03453360eb9",
    ("scan_tape", 1, 0): "87a15c9ca2a4e350c15a5f7cdcb716fbfc7ba4b4bc4b43194e96a03453360eb9",
    ("scan_tape", 1, 1): "87a15c9ca2a4e350c15a5f7cdcb716fbfc7ba4b4bc4b43194e96a03453360eb9",
    ("scan_tape", 1, 2): "87a15c9ca2a4e350c15a5f7cdcb716fbfc7ba4b4bc4b43194e96a03453360eb9",
    ("scan_tape", 2, 0): "e8745ea14faf3dee0dd7c489b36223d12f05c4c3c83fda245084fff3b383dc0d",
    ("scan_tape", 2, 1): "63d30700c35ed0d91b5849c3eed570f53751ebc975edcac60098f9d86c4c03e4",
    ("scan_tape", 2, 2): "1e52cd90aba607af85b87b84d306062d056ecb37ebc6cf358823370392f548d2",
    ("scan_tape", 3, 0): "1e52cd90aba607af85b87b84d306062d056ecb37ebc6cf358823370392f548d2",
    ("scan_tape", 3, 1): "1e52cd90aba607af85b87b84d306062d056ecb37ebc6cf358823370392f548d2",
    ("scan_tape", 3, 2): "1e52cd90aba607af85b87b84d306062d056ecb37ebc6cf358823370392f548d2",
    ("scan_tape", 4, 0): "1d0295da9b6d033371f36e5ea851df27897f51d9eaab75d095397f7e2c777443",
    ("scan_tape", 4, 1): "aa24da0e840ee97271a845fe1f3eecb108b23098a90231fdb8a118c540b151b1",
    ("scan_tape", 4, 2): "aa24da0e840ee97271a845fe1f3eecb108b23098a90231fdb8a118c540b151b1",
    ("scan_tape", 5, 0): "f2f2d03b137319fc7952ceef1f099be406d5e70cab756383a07707b5da94573c",
    ("scan_tape", 5, 1): "f2f2d03b137319fc7952ceef1f099be406d5e70cab756383a07707b5da94573c",
    ("scan_tape", 5, 2): "f2f2d03b137319fc7952ceef1f099be406d5e70cab756383a07707b5da94573c",
}

#: sha256 of ``repr(log)`` under the ``seeded`` plan, for every wake
#: point (up to the caller's failure) and hop count.
SEEDED_LOG_DIGESTS = {
    ("read_range", "start", 0): "2e72d3e9ab07c61fe98626c68535c2a53d5d838e5a3e932102791b06deb16426",
    ("read_range", "start", 1): "b172fed80c43b229c6e9ebeed6b1c7926e0ad321e830e880ddc44485528d2cc4",
    ("read_range", "start", 2): "b172fed80c43b229c6e9ebeed6b1c7926e0ad321e830e880ddc44485528d2cc4",
    ("read_range", 0, 0): "5514c83196a7458a5d99c1b59246bc014f9293b9f8313ae37936eda3c308290e",
    ("read_range", 0, 1): "5514c83196a7458a5d99c1b59246bc014f9293b9f8313ae37936eda3c308290e",
    ("read_range", 0, 2): "5514c83196a7458a5d99c1b59246bc014f9293b9f8313ae37936eda3c308290e",
    ("read_range", 1, 0): "5514c83196a7458a5d99c1b59246bc014f9293b9f8313ae37936eda3c308290e",
    ("read_range", 1, 1): "5514c83196a7458a5d99c1b59246bc014f9293b9f8313ae37936eda3c308290e",
    ("read_range", 1, 2): "5514c83196a7458a5d99c1b59246bc014f9293b9f8313ae37936eda3c308290e",
    ("read_range", 2, 0): "ee33d1060b0010e8578cb12c22e20b0259a37a54fe1142873d3b9fb835b45b78",
    ("read_range", 2, 1): "ee33d1060b0010e8578cb12c22e20b0259a37a54fe1142873d3b9fb835b45b78",
    ("read_range", 2, 2): "7f3ee681efb2b53c2f6d5c8f0ce9cb123adea2a90686f391f447dba2858dbbf6",
    ("write_burst", "start", 0): "114c5175caa4272ffc7d76db62ea76d36d57983c918bf85e21869738420c14a4",
    ("write_burst", "start", 1): "8adb0ad194501ee363b37d257daa13e4b580bb37c76c7e61c8d81d07ca4fd7d8",
    ("write_burst", "start", 2): "8adb0ad194501ee363b37d257daa13e4b580bb37c76c7e61c8d81d07ca4fd7d8",
    ("write_burst", 0, 0): "99a56dd7459e6c7cdc1d8c69c394c6139c8e15f44e84e96e26c923699a2415b4",
    ("write_burst", 0, 1): "99a56dd7459e6c7cdc1d8c69c394c6139c8e15f44e84e96e26c923699a2415b4",
    ("write_burst", 0, 2): "99a56dd7459e6c7cdc1d8c69c394c6139c8e15f44e84e96e26c923699a2415b4",
    ("write_burst", 1, 0): "d748941f0e8a0ddd623d5c2e86646a7e72a6df6af711d096ad8d64a7619a934e",
    ("write_burst", 1, 1): "d748941f0e8a0ddd623d5c2e86646a7e72a6df6af711d096ad8d64a7619a934e",
    ("write_burst", 1, 2): "d748941f0e8a0ddd623d5c2e86646a7e72a6df6af711d096ad8d64a7619a934e",
    ("write_burst", 2, 0): "27b8ccb0f9f6316b40eb4eb0b3319da24fdfccda7d0a2597629a2e5170b9f840",
    ("write_burst", 2, 1): "27b8ccb0f9f6316b40eb4eb0b3319da24fdfccda7d0a2597629a2e5170b9f840",
    ("write_burst", 2, 2): "50581c7e552284e5149c5fc780deef59d1debc5807e5d8f8ffd126d41fbc9af4",
    ("read_chunks", "start", 0): "e7ee670fcce3ebefb149f349e3749dc03ffed1a65def9c06515eaf7402400366",
    ("read_chunks", "start", 1): "1d3c922e6537be5f0785b18821306cc4d93962c41350c7e42c56f1c6102479d1",
    ("read_chunks", "start", 2): "1d3c922e6537be5f0785b18821306cc4d93962c41350c7e42c56f1c6102479d1",
    ("read_chunks", 0, 0): "53119e7d07f77c742edf571eb6ee25b49c1d15fd4b5494b9a8e047daff56649d",
    ("read_chunks", 0, 1): "53119e7d07f77c742edf571eb6ee25b49c1d15fd4b5494b9a8e047daff56649d",
    ("read_chunks", 0, 2): "53119e7d07f77c742edf571eb6ee25b49c1d15fd4b5494b9a8e047daff56649d",
    ("read_chunks", 1, 0): "53119e7d07f77c742edf571eb6ee25b49c1d15fd4b5494b9a8e047daff56649d",
    ("read_chunks", 1, 1): "53119e7d07f77c742edf571eb6ee25b49c1d15fd4b5494b9a8e047daff56649d",
    ("read_chunks", 1, 2): "53119e7d07f77c742edf571eb6ee25b49c1d15fd4b5494b9a8e047daff56649d",
    ("read_chunks", 2, 0): "de4b109f36080a642a6de1eeaff92f0e64f33fbc72ecdd04b9ee51bc802d837f",
    ("read_chunks", 2, 1): "de4b109f36080a642a6de1eeaff92f0e64f33fbc72ecdd04b9ee51bc802d837f",
    ("read_chunks", 2, 2): "c1ae995c45992cccf17ea1da29c502afdffc9109b03564d725ceb346799f15d1",
    ("scan_tape", "start", 0): "d82832b0512f66ca6820fed70995343d3c2cdfd586c6c865d6454a5f78c00e43",
    ("scan_tape", "start", 1): "f015278e4e11a0c30014d8e2fcf68afa309dad5ff9bac060e0cf7c048f1b3f77",
    ("scan_tape", "start", 2): "f015278e4e11a0c30014d8e2fcf68afa309dad5ff9bac060e0cf7c048f1b3f77",
    ("scan_tape", 0, 0): "02105448719e8ca1d11f4837d502cbf0b3e22c5d019663e57aea01b3aebaecc0",
    ("scan_tape", 0, 1): "e0a724c1fea107a65252b96c5f4310c36f9414e697177f8697154a355b4d055a",
    ("scan_tape", 0, 2): "777329d9c164cae33b8f582ad4e30f08a1a8da2b669ba0b666f34330160bb5ea",
    ("scan_tape", 1, 0): "777329d9c164cae33b8f582ad4e30f08a1a8da2b669ba0b666f34330160bb5ea",
    ("scan_tape", 1, 1): "777329d9c164cae33b8f582ad4e30f08a1a8da2b669ba0b666f34330160bb5ea",
    ("scan_tape", 1, 2): "777329d9c164cae33b8f582ad4e30f08a1a8da2b669ba0b666f34330160bb5ea",
    ("scan_tape", 2, 0): "b95bc47447ba485476cffbc14df5c65995ed7775d4ecaf18c4e66cf78a22872a",
    ("scan_tape", 2, 1): "c719f59c7ea6ba8955d19a28269d33da58e903bebb030385ff37e51c94f079f7",
    ("scan_tape", 2, 2): "37951001819dcdfdac52286a7eebf1a66c4a9e9b0f7e0ff1a41d448218104dd8",
    ("scan_tape", 3, 0): "37951001819dcdfdac52286a7eebf1a66c4a9e9b0f7e0ff1a41d448218104dd8",
    ("scan_tape", 3, 1): "37951001819dcdfdac52286a7eebf1a66c4a9e9b0f7e0ff1a41d448218104dd8",
    ("scan_tape", 3, 2): "37951001819dcdfdac52286a7eebf1a66c4a9e9b0f7e0ff1a41d448218104dd8",
    ("scan_tape", 4, 0): "8af8e3c7b605ddd88e0ec3981165eba506427d14d1cee743e7b9c3f7b8dd9d7b",
    ("scan_tape", 4, 1): "30e5026be1b930d2eab55595727129bdc1d08baeada085d738575f18c7ac3eb5",
    ("scan_tape", 4, 2): "30e5026be1b930d2eab55595727129bdc1d08baeada085d738575f18c7ac3eb5",
}


@pytest.mark.parametrize("path", list(EXPECTED_AT_START))
def test_rivals_at_start(path):
    assert run_case(path, "start") == EXPECTED_AT_START[path]


@pytest.mark.parametrize("path,wake,hops", list(LOG_DIGESTS))
def test_rivals_hops_after_each_release(path, wake, hops):
    log = run_case(path, wake, hops)
    assert hashlib.sha256(repr(log).encode()).hexdigest() == LOG_DIGESTS[(path, wake, hops)]


def log_digest(log):
    return hashlib.sha256(repr(log).encode()).hexdigest()


@pytest.mark.parametrize("path", list(EXPECTED_AT_START))
def test_rate0_plan_rivals_at_start(path):
    assert run_case(path, "start", plan="rate0") == EXPECTED_AT_START[path]


@pytest.mark.parametrize("path,wake,hops", list(LOG_DIGESTS))
def test_rate0_plan_rivals_hops_after_each_release(path, wake, hops):
    assert log_digest(run_case(path, wake, hops, plan="rate0")) == LOG_DIGESTS[(path, wake, hops)]


@pytest.mark.parametrize("path,wake,hops", list(SEEDED_LOG_DIGESTS))
def test_seeded_plan_rivals_hops_after_each_release(path, wake, hops):
    log = run_case(path, wake, hops, plan="seeded")
    assert log_digest(log) == SEEDED_LOG_DIGESTS[(path, wake, hops)]


@pytest.mark.parametrize("path", list(PATHS))
def test_seeded_plan_stalls_retries_and_gives_up(path):
    # With max_retries=1 an op the policy gives up on saw two errors, so
    # more errors than that means some retry succeeded.
    counts = collections.Counter(entry[0] for entry in run_case(path, "start", plan="seeded"))
    assert counts["stall"] > 0
    assert counts["gave-up"] > 0
    assert counts["error"] > 2 * counts["gave-up"]


class TestNoProcessPerOp:
    """Multi-device I/O starts device ops as plain events, with or without faults."""

    @pytest.mark.parametrize("path", list(PATHS))
    def test_fault_free_paths_spawn_no_process(self, path):
        with pytest.MonkeyPatch.context() as patch:
            rig = Rig(patch)
            main = rig.sim.process(PATHS[path](rig))
            spawned = []
            init = Process.__init__

            def counting_init(process, *args, **kwargs):
                spawned.append(process)
                init(process, *args, **kwargs)

            patch.setattr(Process, "__init__", counting_init)
            rig.sim.run(main)
        assert spawned == []
        assert any(entry[0] == "grant" for entry in rig.log)

    @pytest.mark.parametrize("plan", list(FAULT_PLANS))
    @pytest.mark.parametrize("path", list(PATHS))
    def test_faulty_paths_spawn_no_process(self, path, plan):
        # Under the seeded plan the path may fail; the failure is logged,
        # and any op it abandoned drains before the count is taken.
        with pytest.MonkeyPatch.context() as patch:
            rig = Rig(patch, plan=plan)
            main = rig.sim.process(rig.attempt(PATHS[path](rig), "caller"))
            spawned = []
            init = Process.__init__

            def counting_init(process, *args, **kwargs):
                spawned.append(process)
                init(process, *args, **kwargs)

            patch.setattr(Process, "__init__", counting_init)
            rig.sim.run(main)
            rig.sim.run()
        assert spawned == []
        assert any(entry[0] == "grant" for entry in rig.log)

    def test_two_failures_in_one_fan_out_stay_typed(self):
        # Every disk op fails for good; both arms of one striped read fail
        # at the same instant.  The caller must get the typed error, and
        # the second failure must not crash the kernel.
        rig = Rig()
        injector = FaultInjector(
            rig.sim, FaultPlan(disk_error_rate=1.0), RetryPolicy(max_retries=0)
        )
        for disk in rig.disks:
            disk.faults = injector
        extent = rig.array.allocate("striped")
        rig.array.install(extent, chunk_of(12.0))

        def caller():
            try:
                yield from rig.array.read_range(extent, 0.0, 12.0)
            except RetryExhaustedError as exc:
                return exc
            raise AssertionError("the striped read did not fail")

        exc = rig.sim.run(rig.sim.process(caller()))
        rig.sim.run()  # the other failed ops drain without a ProcessCrash
        assert isinstance(exc.__cause__, DiskTransientError)
        assert sorted(injector.stats.errors_by_device) == ["d0", "d1", "d2"]


class TestKernelAllocations:
    """A fault-free device op allocates only what a process waits on.

    The one event its caller yields is the op's only event: the unit
    grant, the bus completion timer, the bus completion and the queue
    hops of a fan-out or prefetch are plain heap callbacks.  Before they
    were, these paths built 4.7 to 5.7 events per op.
    """

    @pytest.mark.parametrize("path", list(PATHS))
    def test_fault_free_op_allocates_at_most_one_event(self, path):
        with pytest.MonkeyPatch.context() as patch:
            rig = Rig(patch)
            created = []
            init = Event.__init__

            def counting_init(event, *args, **kwargs):
                created.append(type(event).__name__)
                init(event, *args, **kwargs)

            patch.setattr(Event, "__init__", counting_init)
            rig.sim.run(rig.sim.process(PATHS[path](rig)))
        ops = sum(entry[0] == "grant" for entry in rig.log)
        kinds = collections.Counter(created)
        assert ops >= 3
        assert kinds["Process"] == 1  # the caller
        assert "Request" not in kinds
        assert "Timeout" not in kinds
        assert len(created) - 1 <= ops


#: Heap pushes (``Simulator._seq``) of one join on the 5 MB / 20 MB test
#: pair at M = 10, D = 120 blocks, fault-free and under :data:`JOIN_PLAN`;
#: recorded before the kernel's internal timers became callbacks, which
#: kept one push per replaced event.
JOIN_PLAN = FaultPlan(seed=3, disk_error_rate=0.05, tape_read_error_rate=0.05, stall_rate=0.05)
JOIN_HEAP_PUSHES = {
    ("CDT-GH", None): 3093,
    ("CTT-GH", None): 2843,
    ("CDT-GH", "seeded"): 3100,
    ("CTT-GH", "seeded"): 2914,
}


@pytest.mark.parametrize("method,plan", list(JOIN_HEAP_PUSHES))
def test_join_heap_pushes(method, plan, small_r, small_s, monkeypatch):
    pushes = []
    finalize = JoinEnvironment.finalize

    def recording_finalize(env, *args, **kwargs):
        pushes.append(env.sim._seq)
        return finalize(env, *args, **kwargs)

    monkeypatch.setattr(JoinEnvironment, "finalize", recording_finalize)
    spec = ExperimentScale().join_spec(
        small_r, small_s, memory_blocks=10.0, disk_blocks=120.0,
        fault_plan=JOIN_PLAN if plan else None,
    )
    stats = run_join(spec, method=method, verify=True)
    assert pushes == [JOIN_HEAP_PUSHES[(method, plan)]]
    assert (stats.fault_retries > 0) == (plan is not None)
