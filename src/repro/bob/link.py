"""Serial link model.

A simplex FIFO pipe: packets serialize onto the link at the configured
bandwidth (the paper sets one serial link's peak comparable to one
DDR3-1600 parallel channel, 12.8 GB/s) and arrive after a fixed
propagation/buffering latency (half of the paper's 15 ns round-trip
figure per direction, the other half charged at the BOB control logic by
the channel model).  Two instances form a full-duplex BOB link.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.obs.tracer import NULL_TRACER
from repro.sim.engine import Engine, TICKS_PER_NS, ns
from repro.sim.stats import StatSet


@dataclass(frozen=True)
class LinkParams:
    """Bandwidth and latency of one link direction."""

    #: Sustained bandwidth in bytes per nanosecond (12.8 = one DDR3-1600
    #: channel equivalent).
    bytes_per_ns: float = 12.8
    #: One-way propagation + buffering latency in ticks.  The paper adds
    #: 15 ns for "link bus and BoB control" overall; we charge half per
    #: direction so a round trip pays the full figure.
    latency: int = ns(7.5)

    def serialization(self, nbytes: int) -> int:
        """Ticks to clock ``nbytes`` onto the link."""
        if nbytes <= 0:
            raise ValueError("packet must have positive size")
        return max(1, int(round(nbytes / self.bytes_per_ns * TICKS_PER_NS)))


#: Sentinel for :meth:`SerialLink.send`'s default "deliver the arrival
#: time" behavior.
_ARRIVAL_TIME = object()


class SerialLink:
    """One direction of a BOB link: FIFO serialization, fixed latency.

    The send path runs once per packet on every BOB access, so the
    per-size serialization ticks are memoized (packet sizes come from a
    handful of fixed formats) and delivery is scheduled with the engine's
    ``(callback, arg)`` form -- no closure per packet.
    """

    def __init__(self, engine: Engine, name: str,
                 params: LinkParams = LinkParams(), tracer=None) -> None:
        self.engine = engine
        self.name = name
        self.params = params
        self._busy_until = 0
        self.stats = StatSet(name)
        self._tracer = (
            tracer if tracer is not None else NULL_TRACER
        ).category("link")
        self._latency = params.latency
        self._ser_cache: Dict[int, int] = {}
        self._packets = self.stats.counter("packets")
        self._bytes = self.stats.counter("bytes")
        #: Fault-injection site (``repro.faults``); ``None`` keeps the
        #: send path on its zero-overhead fast branch.
        self._faults = None

    def arm_faults(self, site) -> None:
        """Attach a :class:`~repro.faults.inject.LinkFaultSite`."""
        self._faults = site

    def send(self, nbytes: int, deliver: Callable[[object], None],
             tag: str = "pkt", arg: object = _ARRIVAL_TIME) -> int:
        """Queue a packet; ``deliver`` fires at the far end.

        By default ``deliver(arrival_time)`` is called; pass ``arg`` to
        call ``deliver(arg)`` instead (lets callers route a request object
        without wrapping it in a closure).  Returns the delivery time
        (useful for tests).  Packets occupy the link in FIFO order; a
        saturated link queues without bound, which callers bound via
        their in-flight windows.  ``tag`` labels the packet's protocol
        role in the trace (``req``/``wdata``/``rdata`` for normal BOB
        traffic, ``raw`` for sealed secure-engine packets, ``remote`` for
        split-tree messages).
        """
        ser = self._ser_cache.get(nbytes)
        if ser is None:
            ser = self._ser_cache[nbytes] = self.params.serialization(nbytes)
        now = self.engine.now
        if self._faults is not None:
            return self._send_faulty(nbytes, deliver, tag, arg, ser, now)
        start = self._busy_until
        if now > start:
            start = now
        busy = start + ser
        self._busy_until = busy
        arrive = busy + self._latency
        self._packets.value += 1
        self._bytes.value += nbytes
        tracer = self._tracer
        if tracer.enabled:
            # One event per packet, emitted at send time: serialization
            # window [start, start+ser], wire times in args.  The
            # timing-leakage check replays Section III-B from these.
            tracer.complete(
                "link", tag, self.name, start, ser,
                {"bytes": nbytes, "sent": now, "arrive": arrive},
            )
        # Inline of Engine.call_at: arrive > now always (serialization
        # takes at least one tick), so the past-schedule guard is moot.
        engine = self.engine
        seq = engine._seq
        engine._seq = seq + 1
        engine._push((arrive, seq, deliver, arrive if arg is _ARRIVAL_TIME else arg))
        return arrive

    def _send_faulty(self, nbytes: int, deliver, tag: str, arg,
                     ser: int, now: int) -> int:
        """:meth:`send` with the injection site consulted per packet.

        A ``delay`` hit stalls the wire (this packet and, via
        ``_busy_until``, everything behind it); ``corrupt`` marks the
        fault-aware payload; ``drop`` emits the packet on the wire (the
        trace event -- an observer still sees it) but never delivers it,
        leaving recovery to the sender's deadline.
        """
        start = self._busy_until
        if now > start:
            start = now
        extra, dropped = self._faults.on_packet(tag, deliver, arg)
        if extra:
            start += extra
        busy = start + ser
        self._busy_until = busy
        arrive = busy + self._latency
        self._packets.value += 1
        self._bytes.value += nbytes
        tracer = self._tracer
        if tracer.enabled:
            tracer.complete(
                "link", tag, self.name, start, ser,
                {"bytes": nbytes, "sent": now, "arrive": arrive},
            )
        if not dropped:
            engine = self.engine
            seq = engine._seq
            engine._seq = seq + 1
            engine._push(
                (arrive, seq, deliver,
                 arrive if arg is _ARRIVAL_TIME else arg)
            )
        return arrive

    def queue_delay(self) -> int:
        """Current backlog delay a new packet would see (ticks)."""
        return max(0, self._busy_until - self.engine.now)

    def utilization(self) -> float:
        """Approximate busy fraction: bytes clocked / elapsed capacity.

        Uses the cached byte counter (no per-call stats lookup) and
        clamps to ``[0, 1]``: before any time has elapsed there is no
        capacity to fill, and a packet accepted at tick 0 can make the
        byte count exceed the elapsed-capacity product.
        """
        now = self.engine.now
        if now <= 0:
            return 0.0
        capacity = self.params.bytes_per_ns * now / TICKS_PER_NS
        util = self._bytes.value / capacity
        return 1.0 if util > 1.0 else util
