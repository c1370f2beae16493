"""Analytical cost model for tertiary joins (Section 5.3).

A closed-form implementation of the paper's transfer-only cost
reasoning that reads each method's own structure (its Table 2 check,
|S_i|, whether it overlaps tape and disk and whether S passes through
disk), used three ways:

* to regenerate the expected-response-time charts (Figures 1–3);
* to drive :func:`repro.core.planner.plan_join`'s method choice;
* as a cross-check on the simulator — integration tests assert the two
  agree in shape (monotonicity, orderings, crossovers).
"""

from repro.costmodel.parameters import SystemParameters
from repro.costmodel.formulas import CostBreakdown, estimate, estimate_all
from repro.costmodel.analysis import (
    FIGURE1_RATIOS,
    FIGURE2_RATIOS,
    FIGURE3_RATIOS,
    AnalyticalSetup,
    figure_response_curves,
    find_crossover,
)

__all__ = [
    "AnalyticalSetup",
    "CostBreakdown",
    "FIGURE1_RATIOS",
    "FIGURE2_RATIOS",
    "FIGURE3_RATIOS",
    "SystemParameters",
    "estimate",
    "estimate_all",
    "figure_response_curves",
    "find_crossover",
]
