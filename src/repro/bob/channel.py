"""A BOB memory channel: main controller, duplex link, simple controller.

Normal (non-secure) traffic uses :meth:`BobChannel.enqueue`, which takes
the same :class:`~repro.dram.commands.MemRequest` a DRAM channel does:
the request crosses the down link as a packet (a short command packet for
reads, a 72 B data packet for writes), is queued at the simple controller
into its DRAM sub-channel, and read data returns as a 72 B packet on the
up link.  An in-flight window back-pressures the processor side, standing
in for BOB's credit flow control.

The secure delegator and the D-ORAM packet protocol use the raw
:meth:`send_down` / :meth:`send_up` pipes and the sub-channels directly --
their framing lives in :mod:`repro.core`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Optional

from repro.bob.link import LinkParams, SerialLink, _ARRIVAL_TIME
from repro.dram.channel import Channel
from repro.dram.commands import MemRequest, OpType
from repro.sim.engine import Engine
from repro.sim.stats import StatSet


@dataclass(frozen=True)
class BobPacketSizes:
    """Wire sizes of normal-traffic packets (bytes)."""

    read_request: int = 16
    write_request: int = 72
    read_response: int = 72


class _NormalOp:
    """Completion chain for one normal-traffic request.

    One instance replaces the two closures the enqueue path would
    allocate per request (DRAM completion, then up-link delivery for
    reads): the object is handed to the sub-channel as ``on_complete``
    and, for reads, re-used as the up link's delivery callback.
    """

    __slots__ = ("bob", "on_complete", "awaiting_data")

    def __init__(self, bob: "BobChannel", on_complete, is_read: bool) -> None:
        self.bob = bob
        self.on_complete = on_complete
        #: True while a read still owes its data packet on the up link.
        self.awaiting_data = is_read

    def fault_mark_corrupt(self) -> bool:
        """Forward a DRAM read flip to whoever verifies the data.

        Normal traffic carries no MAC, so the mark only sticks when the
        final consumer is itself fault-aware (e.g. the failover engine's
        :class:`~repro.core.recovery.GuardedRead`); otherwise the flip
        is silently unprotected, which the injector counts.
        """
        mark = getattr(self.on_complete, "fault_mark_corrupt", None)
        return mark() if mark is not None else False

    def __call__(self, time: int) -> None:
        bob = self.bob
        if self.awaiting_data:
            # Read data returns over the up link first; this object is
            # also the delivery callback, re-invoked with the arrival.
            self.awaiting_data = False
            bob._packets_up()
            bob.up.send(bob.packet_sizes.read_response, self, tag="rdata")
            return
        bob._finish(self.on_complete, time)


class BobChannel:
    """One serial-link channel with 1..4 DRAM sub-channels behind it."""

    def __init__(
        self,
        engine: Engine,
        channel_id: int,
        subchannels: List[Channel],
        link_params: LinkParams = LinkParams(),
        window: int = 64,
        packet_sizes: BobPacketSizes = BobPacketSizes(),
        tracer=None,
    ) -> None:
        if not subchannels:
            raise ValueError("a BOB channel needs at least one sub-channel")
        self.engine = engine
        self.channel_id = channel_id
        self.subchannels = subchannels
        self.down = SerialLink(engine, f"bob{channel_id}.down", link_params,
                               tracer=tracer)
        self.up = SerialLink(engine, f"bob{channel_id}.up", link_params,
                             tracer=tracer)
        self.window = window
        self.packet_sizes = packet_sizes
        self.stats = StatSet(f"bob{channel_id}")
        self._inflight = 0
        self._space_waiters: List[Callable[[], None]] = []
        #: Requests that arrived at the simple controller but found their
        #: sub-channel queue full, per sub-channel index.
        self._held: Dict[int, List[MemRequest]] = {
            i: [] for i in range(len(subchannels))
        }
        self._packets_down = self.stats.counter("packets_down").add
        self._packets_up = self.stats.counter("packets_up").add

    # ------------------------------------------------------------------
    # Normal traffic
    # ------------------------------------------------------------------
    def can_accept(self, op: OpType) -> bool:
        return self._inflight < self.window

    def notify_on_space(self, callback: Callable[[], None]) -> None:
        self._space_waiters.append(callback)

    def enqueue(self, req: MemRequest) -> None:
        """Send one request through the channel to sub-channel
        ``req.subchannel``; ``req.on_complete`` fires once a write reaches
        the simple controller's DRAM, or a read's data is back up."""
        if self._inflight >= self.window:
            raise RuntimeError(f"bob{self.channel_id}: window full")
        self._inflight += 1
        if req.is_write:
            # Writes finish at the simple controller; reads owe a data
            # packet on the up link first (see _NormalOp).
            size = self.packet_sizes.write_request
            tag = "wdata"
            req.on_complete = _NormalOp(self, req.on_complete, False)
        else:
            size = self.packet_sizes.read_request
            tag = "req"
            req.on_complete = _NormalOp(self, req.on_complete, True)
        self._packets_down()
        self.down.send(size, self._arrive, tag=tag, arg=req)

    def _arrive(self, req: MemRequest) -> None:
        """Packet reached the simple controller: queue into DRAM."""
        sub = self.subchannels[req.subchannel]
        if sub.can_accept(req.op):
            sub.enqueue(req)
        else:
            self._held[req.subchannel].append(req)
            sub.notify_on_space(lambda s=req.subchannel: self._drain_held(s))

    def _drain_held(self, subchannel: int) -> None:
        held = self._held[subchannel]
        sub = self.subchannels[subchannel]
        while held and sub.can_accept(held[0].op):
            sub.enqueue(held.pop(0))
        if held:
            sub.notify_on_space(lambda s=subchannel: self._drain_held(s))

    def _finish(self, on_complete: Optional[Callable[[int], None]], time: int) -> None:
        self._inflight -= 1
        if self._space_waiters:
            waiters, self._space_waiters = self._space_waiters, []
            for callback in waiters:
                callback()
        if on_complete is not None:
            on_complete(time)

    # ------------------------------------------------------------------
    # Raw packet pipes (secure packets, cross-channel ORAM messages)
    # ------------------------------------------------------------------
    def send_down(self, nbytes: int, deliver: Callable[[int], None],
                  tag: str = "raw", arg: object = _ARRIVAL_TIME) -> int:
        """Ship an opaque packet CPU -> simple controller."""
        self.stats.counter("raw_down").add()
        return self.down.send(nbytes, deliver, tag=tag, arg=arg)

    def send_up(self, nbytes: int, deliver: Callable[[int], None],
                tag: str = "raw", arg: object = _ARRIVAL_TIME) -> int:
        """Ship an opaque packet simple controller -> CPU."""
        self.stats.counter("raw_up").add()
        return self.up.send(nbytes, deliver, tag=tag, arg=arg)
