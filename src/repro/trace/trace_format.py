"""Trace records.

A record is "``gap`` non-memory instructions, then one memory access",
the shape of a USIMM trace line.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class TraceRecord:
    """One memory access preceded by ``gap`` non-memory instructions."""

    gap: int
    is_write: bool
    line_addr: int

    def __post_init__(self) -> None:
        if self.gap < 0:
            raise ValueError("gap must be non-negative")
        if self.line_addr < 0:
            raise ValueError("line address must be non-negative")
