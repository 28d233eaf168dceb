"""Path ORAM substrate.

Two layers:

* **Functional** (:class:`~repro.oram.path_oram.PathOram` and its
  bookkeeping core :class:`~repro.oram.protocol.ProtocolState`): a complete
  Path ORAM [Stefanov et al., CCS'13] with position map, stash, greedy
  write-back eviction, optional encryption and integrity.  Small trees,
  real data, heavily property-tested.

* **Timing** (:class:`~repro.oram.controller.OramController`): the engine
  that converts one protected memory request into the paper's hundreds of
  DRAM block accesses, with the ISCA'13 optimizations Section IV adopts --
  tree-top caching (top 3 levels in SRAM) and the 7-level subtree layout
  that maximizes row-buffer hits.  It never materializes tree contents
  (the paper's 4 GB tree stays arithmetic), only the address stream.
"""

from repro.oram.config import OramConfig
from repro.oram.tree import TreeGeometry
from repro.oram.position_map import DensePositionMap, LazyPositionMap
from repro.oram.stash import Stash, StashOverflow
from repro.oram.protocol import ProtocolState
from repro.oram.path_oram import PathOram
from repro.oram.layout import OramLayout, BlockPlacement

__all__ = [
    "OramConfig",
    "TreeGeometry",
    "DensePositionMap",
    "LazyPositionMap",
    "Stash",
    "StashOverflow",
    "ProtocolState",
    "PathOram",
    "OramLayout",
    "BlockPlacement",
]
