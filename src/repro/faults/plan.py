"""Fault plans: seeded, serializable descriptions of what to inject.

A :class:`FaultPlan` is pure data — rates, magnitudes and a seed — with
no live state.  The :class:`~repro.faults.injector.FaultInjector` built
from it derives one independent :mod:`random` stream per device from
``sha256(seed:device)``, so the schedule of faults is a deterministic
function of (plan, device name, operation sequence): the same plan
replays the identical fault schedule across runs, processes and
platforms (Mersenne Twister is bit-stable everywhere).

Because a plan is plain data it serializes losslessly into sweep task
payloads, where it participates in result fingerprinting: two sweeps
with different plans can never share cache entries.
"""

from __future__ import annotations

import dataclasses

#: Operation kinds the injector distinguishes.  ``kinds`` filters in a
#: plan restrict injection to a subset (used by targeted tests).
OP_KINDS = ("tape-read", "tape-write", "disk-read", "disk-write", "bus")


@dataclasses.dataclass(frozen=True)
class FaultPlan:
    """Rates and magnitudes of the injected faults (all deterministic).

    Rates are per-operation probabilities in [0, 1].  Durations are in
    *simulated* seconds — every fault charges the simulation clock, never
    wall time.  A plan with all rates zero is valid and provably inert:
    the guarded device paths collapse to the exact unguarded event
    sequence, so artifacts stay byte-identical.
    """

    seed: int = 0
    #: Probability a tape read returns a soft error and must be retried.
    tape_read_error_rate: float = 0.0
    #: Probability a tape append fails and must be retried.
    tape_write_error_rate: float = 0.0
    #: Probability a disk transfer (either direction) fails transiently.
    disk_error_rate: float = 0.0
    #: Probability a tape operation stalls (drive slowdown, no error).
    stall_rate: float = 0.0
    #: Duration of one stall, simulated seconds.
    stall_s: float = 2.0
    #: Probability one bus transfer is delayed by a glitch.
    bus_glitch_rate: float = 0.0
    #: Duration of one bus glitch, simulated seconds.
    bus_glitch_s: float = 0.05
    #: Time the host needs to detect a failed operation before reacting.
    detect_s: float = 0.5
    #: Restrict injection to these operation kinds (None = all kinds).
    kinds: tuple[str, ...] | None = None
    #: Inject only after Step I completes (targeted Step II testing).
    step2_only: bool = False

    def __post_init__(self):
        for name in (
            "tape_read_error_rate", "tape_write_error_rate", "disk_error_rate",
            "stall_rate", "bus_glitch_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1], got {rate}")
        for name in ("stall_s", "bus_glitch_s", "detect_s"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative")
        if self.kinds is not None:
            unknown = set(self.kinds) - set(OP_KINDS)
            if unknown:
                raise ValueError(
                    f"unknown operation kinds {sorted(unknown)}; "
                    f"known: {', '.join(OP_KINDS)}"
                )
            object.__setattr__(self, "kinds", tuple(self.kinds))

    @classmethod
    def uniform(cls, rate: float, seed: int = 0, **overrides) -> "FaultPlan":
        """A plan injecting every fault type at the same ``rate``."""
        fields = dict(
            seed=seed,
            tape_read_error_rate=rate,
            disk_error_rate=rate,
            stall_rate=rate,
            bus_glitch_rate=rate,
        )
        fields.update(overrides)
        return cls(**fields)

    @property
    def active(self) -> bool:
        """True when any fault can actually fire."""
        return (
            self.tape_read_error_rate > 0
            or self.tape_write_error_rate > 0
            or self.disk_error_rate > 0
            or self.stall_rate > 0
            or self.bus_glitch_rate > 0
        )

    def error_rate(self, kind: str) -> float:
        """Permanent-failure probability for one operation kind."""
        if kind == "tape-read":
            return self.tape_read_error_rate
        if kind == "tape-write":
            return self.tape_write_error_rate
        if kind in ("disk-read", "disk-write"):
            return self.disk_error_rate
        return 0.0
