"""Trace-driven processor front end.

USIMM drives its memory system with a per-core reorder-buffer (ROB) model:
instructions retire in order at the retire width, a load blocks retirement
until its data returns, stores drain through the write queue, and fetch
stalls when the ROB is full.  :class:`~repro.cpu.core.Core` reproduces that
model event-driven.  Every scheme feeds its cores post-LLC miss streams,
as the paper's MSC traces are, so no cache is modelled.
"""

from repro.cpu.core import Core, CoreParams

__all__ = ["Core", "CoreParams"]
