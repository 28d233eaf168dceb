"""JEDEC DDR3 timing parameters.

All values are stored in engine ticks (16 ticks per nanosecond) and the
defaults correspond to DDR3-1600K (11-11-11) as enforced by USIMM's default
configuration, which Table II of the paper adopts.  One memory-bus cycle at
1600 MT/s (800 MHz clock) is 1.25 ns = 20 ticks.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.sim.engine import mem_cycles, ns


@dataclass(frozen=True)
class DDR3Timing:
    """DDR3 device timing constraints, in engine ticks.

    Attribute names follow JEDEC / USIMM conventions.  The defaults model
    DDR3-1600 with CL=11; construct with different values for speed-grade
    ablations.
    """

    #: One memory bus cycle (tCK), ticks.
    tCK: int = mem_cycles(1)
    #: ACTIVATE to internal read/write delay (tRCD).
    tRCD: int = mem_cycles(11)
    #: PRECHARGE to ACTIVATE delay (tRP).
    tRP: int = mem_cycles(11)
    #: CAS latency: column read command to first data (tCL / tCAS).
    tCL: int = mem_cycles(11)
    #: CAS write latency (tCWL/tCWD); DDR3-1600 uses 8.
    tCWL: int = mem_cycles(8)
    #: ACTIVATE to PRECHARGE minimum (tRAS).
    tRAS: int = mem_cycles(28)
    #: ACTIVATE to ACTIVATE, same bank (tRC = tRAS + tRP).
    tRC: int = mem_cycles(39)
    #: Data burst duration for BL8 on a x64 channel (4 bus cycles).
    tBURST: int = mem_cycles(4)
    #: ACTIVATE to ACTIVATE, different banks same rank (tRRD).
    tRRD: int = mem_cycles(5)
    #: Four-activate window per rank (tFAW).
    tFAW: int = mem_cycles(24)
    #: Write recovery: end of write data to PRECHARGE (tWR).
    tWR: int = mem_cycles(12)
    #: Read to PRECHARGE (tRTP).
    tRTP: int = mem_cycles(6)
    #: Write data end to subsequent READ command, same rank (tWTR).
    tWTR: int = mem_cycles(6)
    #: Read data end to subsequent write burst (bus turnaround, tRTW proxy).
    tRTW: int = mem_cycles(2)
    #: Average refresh interval (tREFI), 7.8 us.
    tREFI: int = ns(7800)
    #: Refresh cycle time (tRFC) for a 4 Gb device, 260 ns.
    tRFC: int = ns(260)

    def __post_init__(self) -> None:
        if self.tRC < self.tRAS + self.tRP:
            raise ValueError("tRC must be >= tRAS + tRP")
        if self.tFAW < self.tRRD:
            raise ValueError("tFAW must cover at least one tRRD window")


#: The paper's device (Table II: DDR3-1600, defaults "strictly enforced
#: in USIMM").
DDR3_1600 = DDR3Timing()


@dataclass(frozen=True)
class ChannelParams:
    """Per-channel organization (Table II: 1 rank, 8 banks per rank)."""

    num_banks: int = 8
    num_ranks: int = 1
    #: Row buffer (page) size in bytes: 8 x8 chips x 1 KB page.
    row_bytes: int = 8192
    #: Cache-line (block) size in bytes.
    line_bytes: int = 64
    #: Read-queue capacity in the controller.
    read_queue_depth: int = 64
    #: Write-queue capacity; fetch backpressure triggers when full.
    write_queue_depth: int = 64
    #: Write drain starts above this occupancy...
    write_drain_hi: int = 40
    #: ...and stops below this one.
    write_drain_lo: int = 16
    #: Starvation bound: a write older than this (ticks) forces a drain
    #: even below the high watermark, as real controllers do.  12800
    #: ticks = 800 ns.
    write_timeout: int = 12800
    #: FR-FCFS scan window (bounded for simulation speed).
    scheduler_window: int = 24

    def __post_init__(self) -> None:
        if self.write_drain_lo >= self.write_drain_hi:
            raise ValueError("write_drain_lo must be below write_drain_hi")
        if self.row_bytes % self.line_bytes:
            raise ValueError("row size must be a multiple of the line size")


DEFAULT_CHANNEL_PARAMS = ChannelParams()
