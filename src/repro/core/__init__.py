"""The paper's contribution: relational join methods for tertiary storage.

Seven methods (Table 2 of the paper), each an executable simulation
process verified to produce the true join result:

========== ==========================================================
Symbol      Method
========== ==========================================================
DT-NB       Disk–Tape Nested Block Join (sequential)
CDT-NB/MB   Concurrent DT Nested Block, memory double-buffering
CDT-NB/DB   Concurrent DT Nested Block, interleaved disk buffering
DT-GH       Disk–Tape Grace Hash Join (sequential)
CDT-GH      Concurrent Disk–Tape Grace Hash Join
CTT-GH      Concurrent Tape–Tape Grace Hash Join
TT-GH       Tape–Tape Grace Hash Join
========== ==========================================================

Typical use::

    from repro.core import JoinSpec, method_by_symbol
    from repro.relational import uniform_relation

    r = uniform_relation("R", size_mb=18, seed=1)
    s = uniform_relation("S", size_mb=100, seed=2)
    spec = JoinSpec(r, s, memory_blocks=18, disk_blocks=500)
    stats = method_by_symbol("CDT-GH").run(spec)
    print(stats.response_s, stats.join_overhead)
"""

from repro.core.base import TertiaryJoinMethod
from repro.core.environment import JoinEnvironment
from repro.core.grace_hash import ConcurrentGraceHash, DiskTapeGraceHash
from repro.core.nested_block import (
    ConcurrentNestedBlockDisk,
    ConcurrentNestedBlockMemory,
    DiskTapeNestedBlock,
)
from repro.core.planner import JoinPlan, plan_join
from repro.core.registry import ALL_METHODS, method_by_symbol, symbols, table2_rows
from repro.core.requirements import ResourceRequirements
from repro.core.spec import InfeasibleJoinError, JoinSpec, JoinStats
from repro.core.tape_tape import ConcurrentTapeTapeGraceHash, TapeTapeGraceHash

__all__ = [
    "ALL_METHODS",
    "ConcurrentGraceHash",
    "ConcurrentNestedBlockDisk",
    "ConcurrentNestedBlockMemory",
    "ConcurrentTapeTapeGraceHash",
    "DiskTapeGraceHash",
    "DiskTapeNestedBlock",
    "InfeasibleJoinError",
    "JoinEnvironment",
    "JoinPlan",
    "JoinSpec",
    "JoinStats",
    "ResourceRequirements",
    "TapeTapeGraceHash",
    "TertiaryJoinMethod",
    "method_by_symbol",
    "plan_join",
    "symbols",
    "table2_rows",
]
