"""Discrete-event simulation kernel.

A compact, dependency-free process-based simulator in the style of SimPy,
built from scratch for this reproduction.  Join algorithms are written as
Python generators that ``yield`` events (timeouts, container gets and puts,
condition events); the :class:`~repro.simulator.engine.Simulator` advances
a virtual clock and resumes processes as their events trigger.

The kernel is deliberately small but complete enough for the paper's needs:

* :class:`Event`, :class:`Timeout` — basic scheduling primitives.
* :class:`Process` — generator-based coroutine with failure propagation.
* :class:`AllOf` — a barrier for parallel I/O overlap.
* :class:`Unit`, :class:`Container` — contention primitives: a device or
  robot serving one request at a time, and a level of buffer space.

Recording what a run did (busy intervals, buffer occupancy over time) is
not part of the kernel; it lives in :mod:`repro.obs`.
"""

from repro.simulator.events import AllOf, Event, Timeout
from repro.simulator.process import Process, ProcessCrash
from repro.simulator.engine import Simulator
from repro.simulator.resources import Container, Unit

__all__ = [
    "AllOf",
    "Container",
    "Event",
    "Process",
    "ProcessCrash",
    "Simulator",
    "Timeout",
    "Unit",
]
