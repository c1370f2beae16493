"""Table 2: resource requirements of the tertiary join methods.

Renders the paper's symbolic table and checks the concrete requirement
computations of every method against it for a reference configuration.
"""

import math

from repro.core.registry import ALL_METHODS, table2_rows
from repro.core.spec import JoinSpec
from repro.experiments.report import format_table
from repro.relational.datagen import uniform_relation


def build_table():
    r = uniform_relation("R", 18.0, seed=1)
    s = uniform_relation("S", 180.0, seed=2)
    spec = JoinSpec(r, s, memory_blocks=18.0, disk_blocks=500.0)
    rows = []
    for method, symbolic in zip(ALL_METHODS, table2_rows()):
        req = method.requirements(spec)
        rows.append(
            {
                "symbol": method.symbol,
                "symbolic": symbolic,
                "memory": req.memory_blocks,
                "disk": req.disk_blocks,
                "tape_r": req.tape_scratch_r_blocks,
                "tape_s": req.tape_scratch_s_blocks,
                "size_r": spec.size_r_blocks,
                "size_s": spec.size_s_blocks,
            }
        )
    return rows


def test_bench_table2(once):
    rows = once(build_table)
    by_symbol = {row["symbol"]: row for row in rows}
    size_r = rows[0]["size_r"]
    size_s = rows[0]["size_s"]

    # Memory column: NB methods take any memory, GH methods need sqrt(|R|).
    for symbol in ("DT-GH", "CDT-GH", "CTT-GH", "TT-GH"):
        assert by_symbol[symbol]["memory"] == math.sqrt(size_r)
    # Disk column.
    assert by_symbol["DT-NB"]["disk"] == size_r
    assert by_symbol["CDT-NB/MB"]["disk"] == size_r
    assert by_symbol["CDT-NB/DB"]["disk"] > size_r
    assert by_symbol["DT-GH"]["disk"] > size_r
    assert by_symbol["CTT-GH"]["disk"] < size_r  # needs only |S_i|
    # Scratch tape column.
    assert by_symbol["CTT-GH"]["tape_r"] == size_r
    assert by_symbol["TT-GH"]["tape_r"] == size_s
    assert by_symbol["TT-GH"]["tape_s"] == size_r

    print("\nTable 2 (symbolic, as published):")
    print(
        format_table(
            ["method", "M", "D", "T_R", "T_S"],
            [
                [row["symbolic"]["symbol"], row["symbolic"]["memory"],
                 row["symbolic"]["disk"], row["symbolic"]["tape_r"],
                 row["symbolic"]["tape_s"]]
                for row in rows
            ],
        )
    )
    print(f"\nConcrete minimums for |R|={size_r:.0f}, |S|={size_s:.0f} blocks:")
    print(
        format_table(
            ["method", "M (blocks)", "D (blocks)", "T_R", "T_S"],
            [
                [row["symbol"], f"{row['memory']:.1f}", f"{row['disk']:.1f}",
                 f"{row['tape_r']:.0f}", f"{row['tape_s']:.0f}"]
                for row in rows
            ],
        )
    )
