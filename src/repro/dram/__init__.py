"""DDR3 DRAM device and memory-controller substrate.

This package replaces USIMM (the cycle-accurate simulator the paper used)
with an event-driven model that keeps the JEDEC DDR3-1600 constraint set:
row hit / closed / conflict latencies, tFAW and tRRD activation windows,
read/write bus turnaround, write recovery, and periodic refresh.

The public surface:

* :class:`~repro.dram.timing.DDR3Timing` -- the JEDEC parameter set;
* :class:`~repro.dram.commands.MemRequest` -- one cache-line read or write;
* :class:`~repro.dram.channel.Channel` -- one (sub-)channel with its banks,
  queues and FR-FCFS scheduler;
* :mod:`~repro.dram.address_mapping` -- line-address to device-coordinate
  mapping, including per-application channel masks used by D-ORAM/c.
"""

from repro.dram.timing import DDR3Timing, DDR3_1600
from repro.dram.commands import MemRequest, OpType
from repro.dram.bank import Bank
from repro.dram.channel import Channel
from repro.dram.scheduler import SharePolicy
from repro.dram.address_mapping import (
    ChannelInterleaver,
    DeviceGeometry,
    decode_line,
)

__all__ = [
    "DDR3Timing",
    "DDR3_1600",
    "MemRequest",
    "OpType",
    "Bank",
    "Channel",
    "SharePolicy",
    "ChannelInterleaver",
    "DeviceGeometry",
    "decode_line",
]
