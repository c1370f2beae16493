"""Closed-form response-time formulas for the seven join methods.

Derived from the method descriptions in Section 5 under the paper's
transfer-only cost model (Section 3.2): response time is I/O time; disk
positioning is negligible for multi-block requests; concurrent methods pay
``max`` of the overlapped device times per iteration, sequential methods
pay the sum.

The model reads what the executable methods decide from the methods
themselves, so the two cannot drift: feasibility is the method's Table 2
check (:meth:`~repro.core.base.TertiaryJoinMethod.infeasibility`, which
``validate`` also raises from); the five disk–tape methods share one
closed form, :func:`disk_tape`, driven by each method's ``concurrent``,
``stages_s_on_disk`` and ``_chunk_blocks`` (|S_i|); TT-GH's B is
:class:`~repro.core.base.GraceHashLayout`'s; and every count of
iterations or scans is the number of pieces
:func:`~repro.core.spec.scan_bounds` cuts, the same walk the simulated
methods iterate.  The registry is imported on first use because
:mod:`repro.core.planner` imports this module.

Notation in the derivations below: ``x_t`` = tape blocks/s, ``x_d`` =
aggregate disk blocks/s, ``Ms`` = |S_i| (the S piece per iteration),
``N`` = number of Step II iterations.
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.core.spec import scan_bounds
from repro.costmodel.parameters import SystemParameters

if typing.TYPE_CHECKING:  # pragma: no cover
    from repro.core.base import TertiaryJoinMethod


@dataclasses.dataclass(frozen=True)
class CostBreakdown:
    """Analytical estimate for one (method, parameters) pair."""

    symbol: str
    feasible: bool
    step1_s: float = math.inf
    step2_s: float = math.inf
    iterations: int = 0
    r_scans: float = 0.0
    disk_traffic_blocks: float = 0.0
    reason: str = ""

    @property
    def total_s(self) -> float:
        """Estimated response time (infinite when infeasible)."""
        if not self.feasible:
            return math.inf
        return self.step1_s + self.step2_s

    def relative_response(self, p: SystemParameters) -> float:
        """Response over the tape read time of S (Figures 1–3 y-axis)."""
        return self.total_s / p.optimum_join_s

    def join_overhead(self, p: SystemParameters) -> float:
        """Fractional overhead over the optimum join time (Figure 9)."""
        return self.total_s / p.optimum_join_s - 1.0


def disk_tape(p: SystemParameters, method: TertiaryJoinMethod) -> CostBreakdown:
    """The five disk–tape methods: R onto disk, then N pieces of S past it.

    Three facts of the method fix its cost.  ``_chunk_blocks`` is
    Ms = |S_i|, so N = ⌈|S|/Ms⌉.  ``stages_s_on_disk`` routes every S
    piece through disk, a write and a read-back (``staged`` = 2 passes)
    beside the |R| scan.  ``concurrent`` overlaps tape and disk, so each
    step pays the larger of the two devices (plus a one-piece pipeline
    fill) where a sequential method pays their sum::

        concurrent: t = max(|R|/x_t, |R|/x_d)
                        + Ms/x_t + N * max(Ms/x_t, (staged*Ms + |R|)/x_d)
        sequential: t = |R|/x_t + |R|/x_d
                        + |S|/x_t + (staged*|S| + N*|R|)/x_d
    """
    x_t, x_d = p.tape_rate_blocks_s, p.disk_rate_blocks_s
    staged = 2.0 if method.stages_s_on_disk else 0.0
    chunk = min(method._chunk_blocks(p), p.size_s_blocks)
    n = len(scan_bounds(0.0, p.size_s_blocks, chunk))
    if method.concurrent:
        step1 = max(p.size_r_blocks / p.rate_tape_r, p.size_r_blocks / x_d)
        step2 = chunk / x_t + n * max(
            chunk / x_t, (staged * chunk + p.size_r_blocks) / x_d
        )
    else:
        step1 = p.size_r_blocks / p.rate_tape_r + p.size_r_blocks / x_d
        step2 = p.size_s_blocks / x_t + (
            staged * p.size_s_blocks + n * p.size_r_blocks
        ) / x_d
    return CostBreakdown(
        method.symbol, True, step1, step2, n, 1.0 + n,
        disk_traffic_blocks=p.size_r_blocks * (1 + n) + staged * p.size_s_blocks,
    )


def ctt_gh(p: SystemParameters, method: TertiaryJoinMethod) -> CostBreakdown:
    """CTT-GH: hash R tape→tape, then CDT-GH-style Step II with |S_i| = D.

    Step I makes ⌈|R|/D⌉ scans of R plus one write pass:
    ``t1 = scans * max(|R|/x_t, 2D/x_d) + |R|/x_t``.
    Step II overlaps three devices per iteration:
    ``t2 = D/x_t + N * max(D/x_t_S, |R|/x_t_R, 2D/x_d)``.
    """
    x_t, x_d = p.tape_rate_blocks_s, p.disk_rate_blocks_s
    x_tr = p.rate_tape_r
    scans = len(scan_bounds(0.0, p.size_r_blocks, p.disk_blocks))
    # Per scan: a full read of R overlapped with writing+reading back the
    # |R|/scans blocks assembled that scan, then the tape append pass.
    assembled = p.size_r_blocks / scans
    step1 = (
        scans * max(p.size_r_blocks / x_tr, 2 * assembled / x_d)
        + p.size_r_blocks / x_tr
    )
    chunk = min(p.disk_blocks, p.size_s_blocks)
    n = len(scan_bounds(0.0, p.size_s_blocks, chunk))
    step2 = chunk / x_t + n * max(
        chunk / x_t, p.size_r_blocks / x_tr, 2 * chunk / x_d
    )
    return CostBreakdown(
        method.symbol, True, step1, step2, n, scans + n,
        disk_traffic_blocks=2 * p.size_r_blocks + 2 * p.size_s_blocks,
    )


def tt_gh(p: SystemParameters, method: TertiaryJoinMethod) -> CostBreakdown:
    """TT-GH: hash both relations tape→tape, then a bucket-wise merge pass.

    Each hashing pass reads its source ⌈size/D⌉ times and appends one full
    copy to the other drive (disk assembly traffic hides under the tape
    streams); Step II streams the two hashed copies off the two drives
    concurrently: ``t1 = ⌈|R|/D⌉|R|/x_t + |R|/x_t + ⌈|S|/D⌉|S|/x_t +
    |S|/x_t``; ``t2 = max(|R|/x_t, |S|/x_t)``.
    """
    from repro.core.base import GraceHashLayout

    x_t, x_tr = p.tape_rate_blocks_s, p.rate_tape_r
    scans_r = len(scan_bounds(0.0, p.size_r_blocks, p.disk_blocks))
    scans_s = len(scan_bounds(0.0, p.size_s_blocks, p.disk_blocks))
    hash_r = scans_r * p.size_r_blocks / x_tr + p.size_r_blocks / x_t
    hash_s = scans_s * p.size_s_blocks / x_t + p.size_s_blocks / x_tr
    step1 = hash_r + hash_s
    step2 = max(p.size_r_blocks / x_t, p.size_s_blocks / x_tr)
    # Step II proceeds bucket by bucket, one iteration per bucket.
    return CostBreakdown(
        method.symbol, True, step1, step2, GraceHashLayout(p).n_buckets, scans_r + 1,
        disk_traffic_blocks=2 * p.size_r_blocks + 2 * p.size_s_blocks,
    )


#: The tape–tape methods' own formulas; every other method is
#: :func:`disk_tape`.
_FORMULAS = {"CTT-GH": ctt_gh, "TT-GH": tt_gh}


def estimate(symbol: str, p: SystemParameters) -> CostBreakdown:
    """Analytical cost of one method under parameters ``p``.

    A method whose Table 2 requirements ``p`` does not meet comes back
    with ``feasible=False`` and the method's own reason.
    """
    from repro.core.registry import method_by_symbol

    method = method_by_symbol(symbol)
    reason = method.infeasibility(p)
    if reason is not None:
        return CostBreakdown(symbol, False, reason=reason)
    return _FORMULAS.get(symbol, disk_tape)(p, method)


def estimate_all(p: SystemParameters) -> dict[str, CostBreakdown]:
    """Analytical costs of all seven methods, keyed by symbol."""
    from repro.core.registry import symbols

    return {symbol: estimate(symbol, p) for symbol in symbols()}
