"""The event structure of one small join, pinned per method.

Every heap push goes through ``Simulator._schedule`` and every process
step through ``Process._resume``.  Their counts for a fixed join are a
fingerprint of the kernel's work: a queue hop that is dropped or added
changes them even where no simulated time, and so no artifact hash,
happens to move.  The numbers were recorded on the code before the
device-op fast paths (one timer per uncontended bus transfer, kernel
hops through ``_schedule``), which must keep every heap entry.
"""

import pytest

from repro.core.registry import method_by_symbol
from repro.core.spec import JoinSpec
from repro.faults.plan import FaultPlan
from repro.simulator.engine import Simulator
from repro.simulator.process import Process

#: symbol -> (heap pushes, process resumes), fault-free.
FAULT_FREE = {
    "DT-NB": (267, 82),
    "CDT-NB/MB": (648, 117),
    "CDT-NB/DB": (803, 299),
    "DT-GH": (2174, 564),
    "CDT-GH": (3093, 585),
    "CTT-GH": (2843, 573),
    "TT-GH": (2612, 833),
}

#: symbol -> (heap pushes, process resumes) under ``FaultPlan.uniform(0.05)``.
FAULTED = {
    "DT-GH": (2278, 564),
    "CDT-GH": (3028, 567),
    "CTT-GH": (2884, 573),
    "TT-GH": (2732, 850),
}


@pytest.fixture
def counted(monkeypatch):
    """Count heap pushes and process resumes from here on."""
    counts = {"pushes": 0, "resumes": 0}
    schedule, resume = Simulator._schedule, Process._resume

    def counting_schedule(self, fn, arg, delay=0.0):
        counts["pushes"] += 1
        schedule(self, fn, arg, delay)

    def counting_resume(self, event):
        counts["resumes"] += 1
        resume(self, event)

    monkeypatch.setattr(Simulator, "_schedule", counting_schedule)
    monkeypatch.setattr(Process, "_resume", counting_resume)
    return counts


def run(symbol, small_r, small_s, fault_plan=None):
    spec = JoinSpec(
        small_r, small_s, memory_blocks=10.0, disk_blocks=120.0, fault_plan=fault_plan
    )
    return method_by_symbol(symbol).run(spec)


@pytest.mark.parametrize("symbol", sorted(FAULT_FREE))
def test_fault_free_join(symbol, small_r, small_s, counted):
    run(symbol, small_r, small_s)
    assert (counted["pushes"], counted["resumes"]) == FAULT_FREE[symbol]


@pytest.mark.parametrize("symbol", sorted(FAULTED))
def test_faulted_grace_hash_join(symbol, small_r, small_s, counted):
    run(symbol, small_r, small_s, FaultPlan.uniform(0.05, seed=0))
    assert (counted["pushes"], counted["resumes"]) == FAULTED[symbol]
