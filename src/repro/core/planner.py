"""Join method selection — the paper's conclusions as code.

Given a :class:`JoinSpec`, the planner filters the seven methods by
feasibility (Table 2's resource requirements against the spec's budgets)
and ranks the survivors by the analytical cost model, so a user can ask
"which method should join *my* tapes with *my* memory and disk?"  Section
10's qualitative guidance (CTT-GH for very large joins, CDT-GH with ample
disk but little memory, CDT-NB at large memory) emerges from the ranking,
and the integration tests assert exactly that.
"""

from __future__ import annotations

import dataclasses
import math

from repro.core.spec import InfeasibleJoinError, JoinSpec
from repro.costmodel.formulas import CostBreakdown, estimate
from repro.costmodel.parameters import SystemParameters


@dataclasses.dataclass(frozen=True)
class RankedMethod:
    """One feasible method with its estimated cost."""

    symbol: str
    estimated_s: float
    breakdown: CostBreakdown


@dataclasses.dataclass(frozen=True)
class JoinPlan:
    """The planner's verdict for one join."""

    chosen: str
    ranked: tuple[RankedMethod, ...]
    rejected: tuple[tuple[str, str], ...]  # (symbol, reason)

    @property
    def estimated_s(self) -> float:
        """Estimated response time of the chosen method."""
        return self.ranked[0].estimated_s


def plan_join(spec: JoinSpec) -> JoinPlan:
    """Choose a join method for ``spec``.

    Raises :class:`InfeasibleJoinError` when no method fits the budgets.
    """
    from repro.core.registry import ALL_METHODS

    params = SystemParameters.from_spec(spec)
    ranked: list[RankedMethod] = []
    rejected: list[tuple[str, str]] = []
    for method in ALL_METHODS:
        # The estimate's feasibility is the method's own Table 2 check:
        # what ``method.validate(spec)`` would raise is its reason.
        breakdown = estimate(method.symbol, params)
        if not breakdown.feasible:
            rejected.append((method.symbol, breakdown.reason))
            continue
        ranked.append(RankedMethod(method.symbol, breakdown.total_s, breakdown))
    if not ranked:
        detail = "; ".join(f"{sym}: {why}" for sym, why in rejected)
        raise InfeasibleJoinError(f"no join method fits the given resources ({detail})")
    ranked.sort(key=lambda rm: (rm.estimated_s, rm.symbol))
    if math.isinf(ranked[0].estimated_s):
        raise InfeasibleJoinError("all feasible methods have infinite estimates")
    return JoinPlan(ranked[0].symbol, tuple(ranked), tuple(rejected))
