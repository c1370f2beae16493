"""System parameters for the analytical model (Table 1 notation).

:meth:`SystemParameters.from_spec` is the one place device parameters
become Table 1's rates: the simulator's join environment and the cost
model both read X_D, X_T and the optimum join time from it.

==========  =====================================================
Symbol       Meaning
==========  =====================================================
``|R|``      size of the smaller relation in blocks
``|S|``      size of the larger relation in blocks
``M``        main memory blocks allocated to the join
``D``        disk blocks available to the join
``X_D``      aggregate sustained disk rate (blocks/second)
``X_T``      sustained tape rate (blocks/second, per drive)
``n``        number of disk drives (the factor inside X_D)
``T_R/T_S``  scratch blocks on the R / S tapes
==========  =====================================================
"""

from __future__ import annotations

import dataclasses
import math
import typing

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.spec import JoinSpec


@dataclasses.dataclass(frozen=True)
class SystemParameters:
    """Inputs of the closed-form cost model."""

    size_r_blocks: float
    size_s_blocks: float
    memory_blocks: float
    disk_blocks: float
    disk_rate_blocks_s: float
    tape_rate_blocks_s: float
    tape_rate_r_blocks_s: float | None = None
    scratch_r_blocks: float = math.inf
    scratch_s_blocks: float = math.inf

    def __post_init__(self):
        if min(self.size_r_blocks, self.size_s_blocks) <= 0:
            raise ValueError("relation sizes must be positive")
        if self.size_r_blocks > self.size_s_blocks + 1e-9:
            raise ValueError("R must be the smaller relation")
        if self.memory_blocks <= 0 or self.disk_blocks <= 0:
            raise ValueError("M and D must be positive")
        if min(self.disk_rate_blocks_s, self.tape_rate_blocks_s) <= 0:
            raise ValueError("device rates must be positive")

    @property
    def rate_tape_r(self) -> float:
        """X_T of the R drive (defaults to the common tape rate)."""
        if self.tape_rate_r_blocks_s is not None:
            return self.tape_rate_r_blocks_s
        return self.tape_rate_blocks_s

    @property
    def optimum_join_s(self) -> float:
        """Bare read time of S from tape — the optimum join time."""
        return self.size_s_blocks / self.tape_rate_blocks_s

    @property
    def bare_read_s(self) -> float:
        """Time to read S and R once, back to back."""
        return self.optimum_join_s + self.size_r_blocks / self.rate_tape_r

    @classmethod
    def from_spec(cls, spec: "JoinSpec") -> "SystemParameters":
        """Derive model parameters from an executable join spec."""
        block_bytes = spec.block_spec.block_bytes
        return cls(
            size_r_blocks=spec.size_r_blocks,
            size_s_blocks=spec.size_s_blocks,
            memory_blocks=spec.memory_blocks,
            disk_blocks=spec.disk_blocks,
            disk_rate_blocks_s=spec.n_disks * spec.disk_params.rate_bytes_s / block_bytes,
            tape_rate_blocks_s=spec.tape_params_s.rate_bytes_s / block_bytes,
            tape_rate_r_blocks_s=spec.tape_params_r.rate_bytes_s / block_bytes,
            scratch_r_blocks=spec.effective_scratch_r(),
            scratch_s_blocks=spec.effective_scratch_s(),
        )
