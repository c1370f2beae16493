"""Discrete-event simulation kernel.

A compact, dependency-free process-based simulator in the style of SimPy,
built from scratch for this reproduction.  Join algorithms are written as
Python generators that ``yield`` events (timeouts, resource requests,
condition events); the :class:`~repro.simulator.engine.Simulator` advances a
virtual clock and resumes processes as their events trigger.

The kernel is deliberately small but complete enough for the paper's needs:

* :class:`Event`, :class:`Timeout` — basic scheduling primitives.
* :class:`Process` — generator-based coroutine with failure propagation.
* :class:`AllOf` — a barrier for parallel I/O overlap.
* :class:`Resource`, :class:`Container`, :class:`Store` — contention
  primitives used to model devices, buses and buffer space.

Recording what a run did (busy intervals, buffer occupancy over time) is
not part of the kernel; it lives in :mod:`repro.obs`.
"""

from repro.simulator.events import AllOf, Event, Timeout
from repro.simulator.process import Process, ProcessCrash
from repro.simulator.engine import Simulator
from repro.simulator.resources import Container, Resource, Store

__all__ = [
    "AllOf",
    "Container",
    "Event",
    "Process",
    "ProcessCrash",
    "Resource",
    "Simulator",
    "Store",
    "Timeout",
]
