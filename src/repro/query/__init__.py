"""A minimal query layer over tape-resident relations.

Section 3.2 of the paper discusses joins whose output "is simply pipelined
to an unrelated process", or feeds "an aggregate operator or an operator
with high selectivity".  This package provides that surrounding machinery:
logical plans (scan / filter / join / aggregate), an executor that charges
simulated tape time for every pass over the data, and integration with the
join planner so an equi-join inside a query picks its tertiary join method
the same way a standalone join does.  A query is one simulation: a join
input's filters cost one tape pass to a scratch tape, which the join then
reads, a cartridge swap mid-plan is a robot exchange, and the join is
verified against the reference join.

Example::

    from repro import query, uniform_relation

    r = uniform_relation("R", 18.0, seed=1)
    s = uniform_relation("S", 100.0, seed=2)
    plan = query.Aggregate(
        query.Join(
            query.Filter(query.TapeScan(r), query.KeyRange(0, 20_000)),
            query.TapeScan(s),
        ),
        kind="count",
    )
    result = query.execute(plan, query.Machine(memory_blocks=18, disk_blocks=500))
    print(result.value, result.simulated_s, result.join_method)
"""

from repro.query.predicates import KeyIn, KeyModulo, KeyRange, Predicate
from repro.query.plan import Aggregate, Filter, Join, PlanNode, TapeScan
from repro.query.executor import Machine, QueryResult, execute

__all__ = [
    "Aggregate",
    "Filter",
    "Join",
    "KeyIn",
    "KeyModulo",
    "KeyRange",
    "Machine",
    "PlanNode",
    "Predicate",
    "QueryResult",
    "TapeScan",
    "execute",
]
