"""Expected-response-time analysis (the paper's Figures 1–3).

The paper plots, for each method, the response time relative to the tape
read time of S, as |R| grows relative to M — with |S| = 10|R|, D = 32M and
X_D = 2 X_T fixed.  :func:`figure_response_curves` regenerates exactly
those series; :func:`find_crossover` locates where two methods trade
places (e.g. CDT-GH vs CDT-NB/MB near M = 0.7|R| in Experiment 3).
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.costmodel.formulas import estimate
from repro.costmodel.parameters import SystemParameters

#: Ratios used in the paper's three analytical charts.
FIGURE1_RATIOS = tuple(float(x) for x in range(1, 6))
FIGURE2_RATIOS = tuple(float(x) for x in range(5, 36, 2))
FIGURE3_RATIOS = tuple(float(x) for x in range(10, 151, 10))


@dataclasses.dataclass(frozen=True)
class AnalyticalSetup:
    """The fixed frame of Figures 1–3.

    ``memory_blocks`` anchors the scale; relation and disk sizes derive
    from it: |R| = ratio·M, |S| = s_over_r·|R|, D = d_over_m·M.
    """

    memory_blocks: float = 160.0
    s_over_r: float = 10.0
    d_over_m: float = 32.0
    tape_rate_blocks_s: float = 20.0
    disk_over_tape: float = 2.0

    def parameters(self, r_over_m: float) -> SystemParameters:
        """Model parameters for one x-axis point (|R| relative to M)."""
        if r_over_m < 1.0:
            raise ValueError("the model assumes M <= |R| (ratio >= 1)")
        size_r = r_over_m * self.memory_blocks
        return SystemParameters(
            size_r_blocks=size_r,
            size_s_blocks=self.s_over_r * size_r,
            memory_blocks=self.memory_blocks,
            disk_blocks=self.d_over_m * self.memory_blocks,
            disk_rate_blocks_s=self.disk_over_tape * self.tape_rate_blocks_s,
            tape_rate_blocks_s=self.tape_rate_blocks_s,
        )


def figure_response_curves(
    ratios: typing.Sequence[float],
    symbols: typing.Sequence[str],
    setup: AnalyticalSetup | None = None,
) -> dict[str, list[float]]:
    """Relative response time per method over the given |R|/M ratios.

    Infeasible points come back as ``inf`` — the paper's charts simply
    omit them (methods "rule themselves out").
    """
    setup = setup or AnalyticalSetup()
    curves: dict[str, list[float]] = {symbol: [] for symbol in symbols}
    for ratio in ratios:
        params = setup.parameters(ratio)
        for symbol in symbols:
            cost = estimate(symbol, params)
            value = cost.relative_response(params) if cost.feasible else math.inf
            curves[symbol].append(value)
    return curves


def find_crossover(
    symbol_a: str,
    symbol_b: str,
    parameters_at: typing.Callable[[float], SystemParameters],
    xs: typing.Sequence[float],
) -> float | None:
    """First x in ``xs`` where the cheaper of two methods flips.

    ``parameters_at`` maps an x value to model parameters.  Returns None
    if one method dominates over the whole range (or a point is
    infeasible for both).
    """
    previous_sign = None
    for x in xs:
        params = parameters_at(x)
        a = estimate(symbol_a, params).total_s
        b = estimate(symbol_b, params).total_s
        if math.isinf(a) and math.isinf(b):
            continue
        sign = a - b
        if previous_sign is not None and sign * previous_sign < 0:
            return x
        if sign != 0:
            previous_sign = sign
    return None
