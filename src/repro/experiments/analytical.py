"""Figures 1–3: expected response time from the analytical model.

The paper fixes |S| = 10|R|, D = 32M and X_D = 2X_T, then plots each
method's response time relative to the tape read time of S over three
ranges of |R| (in units of M): 1–5 (Figure 1), 5–35 (Figure 2) and 10–150
(Figure 3).  Methods that cannot run in a configuration simply drop out of
the chart (rendered as ``-``).
"""

from __future__ import annotations

import dataclasses
import math
import typing

from repro.core.registry import symbols
from repro.costmodel.analysis import (
    FIGURE1_RATIOS,
    FIGURE2_RATIOS,
    FIGURE3_RATIOS,
    AnalyticalSetup,
    figure_response_curves,
)
from repro.experiments.report import format_series


@dataclasses.dataclass(frozen=True)
class FigureCurves:
    """One analytical chart: x values plus one relative-response series
    per method (``inf`` marks infeasible points)."""

    figure: str
    x_label: str
    ratios: tuple[float, ...]
    curves: dict[str, list[float]]

    def render(self) -> str:
        """Paper-style text rendering of the chart."""
        title = f"{self.figure}: response time relative to tape read time of S"
        body = format_series(self.x_label, list(self.ratios), self.curves)
        return f"{title}\n{body}"

    def to_dict(self) -> dict:
        """JSON-serializable form; infeasible (``inf``) points become None."""
        return {
            "ratios": list(self.ratios),
            "curves": {
                symbol: [None if math.isinf(v) else v for v in series]
                for symbol, series in self.curves.items()
            },
        }


def _figure(name: str, ratios: typing.Sequence[float], setup: AnalyticalSetup | None) -> FigureCurves:
    curves = figure_response_curves(ratios, symbols(), setup)
    return FigureCurves(name, "|R|/M", tuple(ratios), curves)


def figure1(setup: AnalyticalSetup | None = None) -> FigureCurves:
    """Figure 1: small |R| (comparable to M)."""
    return _figure("Figure 1 (small |R|)", FIGURE1_RATIOS, setup)


def figure2(setup: AnalyticalSetup | None = None) -> FigureCurves:
    """Figure 2: medium |R| (up to D = 32M)."""
    return _figure("Figure 2 (medium |R|)", FIGURE2_RATIOS, setup)


def figure3(setup: AnalyticalSetup | None = None) -> FigureCurves:
    """Figure 3: large |R| (far beyond M and D)."""
    return _figure("Figure 3 (large |R|)", FIGURE3_RATIOS, setup)
