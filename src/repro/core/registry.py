"""Registry of the seven tertiary join methods."""

from __future__ import annotations

from repro.core.base import TertiaryJoinMethod
from repro.core.grace_hash import ConcurrentGraceHash, DiskTapeGraceHash
from repro.core.nested_block import (
    ConcurrentNestedBlockDisk,
    ConcurrentNestedBlockMemory,
    DiskTapeNestedBlock,
)
from repro.core.tape_tape import ConcurrentTapeTapeGraceHash, TapeTapeGraceHash

#: All methods, in the order of the paper's Table 2.
ALL_METHODS: tuple[TertiaryJoinMethod, ...] = (
    DiskTapeNestedBlock(),
    ConcurrentNestedBlockMemory(),
    ConcurrentNestedBlockDisk(),
    DiskTapeGraceHash(),
    ConcurrentGraceHash(),
    ConcurrentTapeTapeGraceHash(),
    TapeTapeGraceHash(),
)

_BY_SYMBOL = {method.symbol: method for method in ALL_METHODS}


def method_by_symbol(symbol: str) -> TertiaryJoinMethod:
    """Look up a join method by its paper symbol (e.g. ``"CTT-GH"``)."""
    try:
        return _BY_SYMBOL[symbol]
    except KeyError:
        known = ", ".join(sorted(_BY_SYMBOL))
        raise KeyError(f"unknown join method {symbol!r}; known: {known}") from None


def symbols() -> list[str]:
    """All method symbols in Table 2 order."""
    return [method.symbol for method in ALL_METHODS]


def table2_rows() -> list[dict]:
    """The paper's Table 2, one dict per method, for report rendering."""
    columns = ("memory", "disk", "tape_r", "tape_s")
    return [
        {"symbol": method.symbol, "name": method.name, **dict(zip(columns, method.table2))}
        for method in ALL_METHODS
    ]
