"""D-ORAM: the paper's primary contribution.

The pieces map one-to-one onto Section III:

* :mod:`~repro.core.config` -- among the system parameters, the wire
  sizes of the 72 B fixed-format secure packet (``PACKET_BYTES``) and the
  short split-tree read packet (``SHORT_PACKET_BYTES``) (III-B, III-C);
* :mod:`~repro.core.timing_guard` -- the fixed-rate request pacer
  (``t = 50`` cycles) that closes the timing channel (III-B step 2);
* :mod:`~repro.core.delegator` -- the secure delegator in the BOB unit
  that runs Path ORAM next to the untrusted DIMMs (III-B);
* :mod:`~repro.core.tree_split` -- Path ORAM tree expansion across normal
  channels and Table I's space/message accounting (III-C);
* :mod:`~repro.core.channel_sharing` -- the D-ORAM/c allocation policy
  and the profiled T25mix/T33 threshold rule (III-D);
* :mod:`~repro.core.frontend` -- the on-chip secure engine driving either
  the delegator (D-ORAM) or an on-chip ORAM controller (baseline);
* :mod:`~repro.core.system` / :mod:`~repro.core.schemes` -- whole-system
  builders for every configuration evaluated in Section V.
"""

from repro.core.config import SystemConfig, PACKET_BYTES, SHORT_PACKET_BYTES
from repro.core.timing_guard import RequestPacer
from repro.core.tree_split import split_space_shares, split_extra_messages, TABLE_I
from repro.core.channel_sharing import (
    sharing_targets,
    recommend_c,
    SharingDecision,
)
from repro.core.system import SimResult, build_and_run
from repro.core.schemes import SCHEMES, run_scheme
from repro.core.hardware import DelegatorBudget, size_delegator

__all__ = [
    "SystemConfig",
    "PACKET_BYTES",
    "SHORT_PACKET_BYTES",
    "RequestPacer",
    "split_space_shares",
    "split_extra_messages",
    "TABLE_I",
    "sharing_targets",
    "recommend_c",
    "SharingDecision",
    "SimResult",
    "build_and_run",
    "SCHEMES",
    "run_scheme",
    "DelegatorBudget",
    "size_delegator",
]
