#!/usr/bin/env python
"""Run small analytical queries against tape-resident relations.

Shows the query layer from Section 3.2's vantage point: aggregates
consume a join's pipelined output without materializing it, and a
selective filter pushed below the join shrinks R — sometimes changing
which join method the planner picks.

Run with::

    python examples/tape_query.py
"""

import repro
from repro import query

MACHINE = query.Machine(memory_blocks=18.0, disk_blocks=400.0)


def queries() -> list[tuple[str, query.PlanNode]]:
    """The example's four queries, as (title, plan) pairs."""
    customers = repro.uniform_relation("customers", 18.0, seed=5)
    sales = repro.uniform_relation(
        "sales", 150.0, seed=6, key_space=4 * 9216
    )
    return [
        (
            "Q1: how many sales records are on the tape?",
            query.Aggregate(query.TapeScan(sales), "count"),
        ),
        (
            "Q2: how many *distinct* customers appear in the sales tape?",
            query.Aggregate(query.TapeScan(sales), "count_distinct"),
        ),
        (
            "Q3: how many sales match a customer on the customer tape?",
            query.Aggregate(
                query.Join(query.TapeScan(customers), query.TapeScan(sales)), "count"
            ),
        ),
        (
            "Q4: same join, but only for one customer segment (filter pushed "
            "below the join)",
            query.Aggregate(
                query.Join(
                    query.Filter(query.TapeScan(customers), query.KeyModulo(10, 3)),
                    query.TapeScan(sales),
                ),
                "count",
            ),
        ),
    ]


def show(title: str, result: query.QueryResult) -> None:
    print(f"{title}")
    print(f"  answer: {result.value}")
    for label, seconds in result.passes:
        print(f"    {label}: {seconds:.0f} s")
    print(f"  total: {result.simulated_s:.0f} simulated seconds"
          + (f" (join method: {result.join_method})" if result.join_method else ""))
    print()


def main() -> None:
    for title, plan in queries():
        show(title, query.execute(plan, MACHINE))


if __name__ == "__main__":
    main()
