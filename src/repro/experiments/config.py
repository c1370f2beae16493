"""Paper parameterizations of the experiments (Section 6).

The testbed: 90 MHz Pentium, 32 MB memory, two Fast SCSI-2 buses, three
disks (we default to two, matching the two data disks Experiment 1 spread
its space over), and two Quantum DLT-4000 drives "used in the 20 GB density
mode with compression enabled".

Tape speed is controlled through data compressibility, exactly as in the
paper's Experiment 3: 0 % compressible data yields the native 1.5 MB/s
("slower tape"), 25 % the base 2.0 MB/s, 50 % the fast 3.0 MB/s.
"""

from __future__ import annotations

import dataclasses
import math

from repro.core.spec import JoinSpec
from repro.relational.datagen import uniform_relation
from repro.relational.relation import Relation
from repro.storage.block import BlockSpec
from repro.storage.disk import DiskParameters
from repro.storage.tape import TapeDriveParameters

#: DLT-4000 on 25 %-compressible data — the base tape speed (2.0 MB/s).
BASE_TAPE = TapeDriveParameters(native_rate_mb_s=1.5, compression_ratio=0.25)

#: 0 %-compressible data — the "slower tape drive" run (1.5 MB/s).
SLOW_TAPE = TapeDriveParameters(native_rate_mb_s=1.5, compression_ratio=0.0)

#: 50 %-compressible data — the "faster tape drive" run (3.0 MB/s).
FAST_TAPE = TapeDriveParameters(native_rate_mb_s=1.5, compression_ratio=0.5)

#: Named tape speeds for Experiment 3's three runs (Figures 9, 10, 11).
TAPE_SPEEDS: dict[str, TapeDriveParameters] = {
    "base": BASE_TAPE,
    "slow": SLOW_TAPE,
    "fast": FAST_TAPE,
}

#: Mid-1990s SCSI disk (Quantum Fireball class).
DISK_1996 = DiskParameters(transfer_rate_mb_s=3.5)

#: Slower member of the testbed's disk mix (Quantum Lightning 540 class).
#: Experiment 3's published overheads are consistent with an aggregate
#: disk rate of ~5 MB/s, i.e. two Lightning-class spindles.
DISK_LIGHTNING = DiskParameters(transfer_rate_mb_s=2.5)


#: The memo behind :meth:`ExperimentScale.cached_relations`.
_RELATION_MEMO: dict[tuple, tuple[Relation, Relation]] = {}


class ScaleTooSmallError(ValueError):
    """An experiment's frame does not fit the system model at this scale."""


@dataclasses.dataclass(frozen=True)
class ExperimentScale:
    """Scaling and data-shape knobs shared by the experiment drivers.

    ``scale`` multiplies every relation/disk/memory size in MB.  The
    paper's outcomes depend on the *ratios* of M, D and the relation
    sizes, so scaled-down runs preserve every curve shape while running
    orders of magnitude faster — tests use scale 0.1, benchmarks 1.0.
    """

    scale: float = 1.0
    tuple_bytes: int = 2048
    block_spec: BlockSpec = dataclasses.field(default_factory=BlockSpec)
    seed: int = 7
    n_disks: int = 2

    def __post_init__(self):
        if not (self.scale > 0 and math.isfinite(self.scale)):
            raise ValueError(f"scale must be positive and finite, got {self.scale}")

    def mb(self, paper_mb: float) -> float:
        """A paper size in MB after scaling."""
        return paper_mb * self.scale

    def blocks(self, paper_mb: float) -> float:
        """A paper size in blocks after scaling."""
        return self.block_spec.blocks_from_mb(self.mb(paper_mb))

    def relation_blocks(self, paper_mb: float) -> float:
        """Exact block count of a relation built by :meth:`relations`.

        Mirrors the generator's tuple-count rounding, so sweep drivers can
        size memory and disk without materializing the key arrays.
        """
        per_block = self.block_spec.tuples_per_block(self.tuple_bytes)
        return round(self.blocks(paper_mb) * per_block) / per_block

    def relations(self, r_mb: float, s_mb: float) -> tuple[Relation, Relation]:
        """Build the R and S relations for given paper sizes in MB."""
        r = uniform_relation(
            "R",
            self.mb(r_mb),
            tuple_bytes=self.tuple_bytes,
            seed=self.seed,
            spec=self.block_spec,
        )
        s = uniform_relation(
            "S",
            self.mb(s_mb),
            tuple_bytes=self.tuple_bytes,
            key_space=4 * r.n_tuples,
            seed=self.seed + 1,
            spec=self.block_spec,
        )
        return r, s

    def cached_relations(self, r_mb: float, s_mb: float) -> tuple[Relation, Relation]:
        """:meth:`relations` through a process-local memo.

        Sweep points and service jobs reuse a handful of (R, S) shapes,
        and datagen is the expensive part of both, so a worker generates
        each pair once.  The memo holds at most nine pairs, which bounds
        worker memory across sweeps.
        """
        key = (self, r_mb, s_mb)
        pair = _RELATION_MEMO.get(key)
        if pair is None:
            if len(_RELATION_MEMO) > 8:
                _RELATION_MEMO.clear()
            pair = _RELATION_MEMO[key] = self.relations(r_mb, s_mb)
        return pair

    def join_spec(
        self,
        relation_r: Relation,
        relation_s: Relation,
        memory_blocks: float,
        disk_blocks: float,
        tape: TapeDriveParameters = BASE_TAPE,
        disk_params: DiskParameters = DISK_1996,
        **options,
    ) -> JoinSpec:
        """The :class:`JoinSpec` of one experiment point.

        The experiments run both relations on one tape model and spread
        D over this scale's ``n_disks``; ``options`` are further
        :class:`JoinSpec` fields (tracing, faults, a partition cache).
        """
        return JoinSpec(
            relation_r,
            relation_s,
            memory_blocks=memory_blocks,
            disk_blocks=disk_blocks,
            n_disks=self.n_disks,
            disk_params=disk_params,
            tape_params_r=tape,
            tape_params_s=tape,
            **options,
        )


@dataclasses.dataclass(frozen=True)
class Experiment1Join:
    """One row of Table 3's parameter block (sizes in MB)."""

    name: str
    s_mb: float
    r_mb: float
    d_mb: float
    m_mb: float = 16.0


#: The four joins of Experiment 1 (Table 3).
EXPERIMENT1_JOINS: tuple[Experiment1Join, ...] = (
    Experiment1Join("Join I", 1000.0, 500.0, 100.0),
    Experiment1Join("Join II", 2500.0, 1250.0, 250.0),
    Experiment1Join("Join III", 5000.0, 2500.0, 500.0),
    Experiment1Join("Join IV", 10000.0, 2500.0, 500.0),
)

#: Experiment 2 frame: |S| = 1000 MB, |R| = 18 MB, M = 0.1 |R|,
#: D swept from 0.5|R| to 3|R| (Figure 5's 9..54 MB range).
EXPERIMENT2_S_MB = 1000.0
EXPERIMENT2_R_MB = 18.0
EXPERIMENT2_D_FRACTIONS: tuple[float, ...] = (0.5, 0.75, 1.0, 1.1, 1.25, 1.5, 2.0, 2.5, 3.0)

#: Experiment 3 frame: |S| = 1000 MB, |R| = 18 MB, D = 50 MB,
#: M swept as a fraction of |R| (Figures 6–11's x axis).
EXPERIMENT3_S_MB = 1000.0
EXPERIMENT3_R_MB = 18.0
EXPERIMENT3_D_MB = 50.0
EXPERIMENT3_M_FRACTIONS: tuple[float, ...] = (0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)

#: The disk–tape methods Experiment 3 compares.
EXPERIMENT3_METHODS: tuple[str, ...] = (
    "DT-NB",
    "CDT-NB/MB",
    "CDT-NB/DB",
    "DT-GH",
    "CDT-GH",
)
