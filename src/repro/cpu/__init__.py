"""Trace-driven processor front end.

USIMM drives its memory system with a per-core reorder-buffer (ROB) model:
instructions retire in order at the retire width, a load blocks retirement
until its data returns, stores drain through the write queue, and fetch
stalls when the ROB is full.  :class:`~repro.cpu.core.Core` reproduces that
model event-driven.  Every scheme feeds its cores post-LLC miss streams,
as the paper's MSC traces are, so none builds a cache;
:class:`~repro.cpu.cache.LastLevelCache` is a standalone filter that turns
a pre-LLC record stream into the miss stream a 4 MB LLC would emit.
"""

from repro.cpu.core import Core, CoreParams
from repro.cpu.cache import LastLevelCache

__all__ = ["Core", "CoreParams", "LastLevelCache"]
