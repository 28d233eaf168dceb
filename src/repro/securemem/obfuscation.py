"""Channel replication + type obfuscation for the secure-memory model.

Each S-App access becomes one request per channel: the real one, plus
dummies at random locations on the other channels, all issued together so
an observer sees identical multi-channel activity regardless of where the
data lives (Section II-B2: "the scheme needs to generate dummy requests
to the channels other than the one that the data located").  The access
completes when the *slowest* replica finishes, plus a small fixed crypto/
packetization overhead -- the source of the ~10 % S-App slowdown the
paper quotes from ObfusMem.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Optional, Tuple

from repro.cpu.core import MemoryPort
from repro.dram.address_mapping import ChannelInterleaver
from repro.dram.channel import Channel
from repro.dram.commands import MemRequest, OpType, TrafficClass
from repro.sim.engine import Engine, ns
from repro.sim.stats import StatSet


class SecureMemPort(MemoryPort):
    """S-App memory port for the trusted-memory model."""

    def __init__(
        self,
        engine: Engine,
        channels: Dict[Tuple[int, int], Channel],
        interleaver: ChannelInterleaver,
        app_id: int,
        window: int = 16,
        crypto_overhead_ns: float = 12.0,
        seed: int = 0,
        name: str = "securemem",
    ) -> None:
        self.engine = engine
        self.channels = channels
        self.interleaver = interleaver
        self.app_id = app_id
        self.window = window
        self.crypto_ticks = ns(crypto_overhead_ns)
        self.stats = StatSet(name)
        self._rng = random.Random(seed)
        self._outstanding = 0
        self._space_waiters: List[Callable[[], None]] = []
        self._held: List[MemRequest] = []
        # Counters resolved once; issue() runs per S-App LLC miss.
        self._real_requests_add = self.stats.counter("real_requests").add
        self._dummy_requests_add = self.stats.counter("dummy_requests").add
        self._reads_add = self.stats.counter("reads").add
        self._writes_add = self.stats.counter("writes").add

    # ------------------------------------------------------------------
    def can_accept(self, op: OpType) -> bool:
        return self._outstanding < self.window

    def notify_on_space(self, callback: Callable[[], None]) -> None:
        self._space_waiters.append(callback)

    def issue(
        self,
        op: OpType,
        line_addr: int,
        app_id: int,
        on_complete: Optional[Callable[[int], None]],
    ) -> None:
        if not self.can_accept(op):
            raise RuntimeError("secure-memory port window full")
        self._outstanding += 1
        real_channel, real_sub, bank, row, col = \
            self.interleaver.map_line(line_addr)
        replicas = len(self.channels)
        state = {"remaining": replicas, "last": 0}

        def replica_done(time: int) -> None:
            state["remaining"] -= 1
            state["last"] = max(state["last"], time)
            if state["remaining"] == 0:
                self._finish(on_complete, op, state["last"])

        for (channel_id, subchannel), channel in self.channels.items():
            if channel_id == real_channel and subchannel == real_sub:
                req = MemRequest(
                    op, channel_id, subchannel, bank, row, col,
                    app_id=self.app_id, traffic=TrafficClass.SECURE,
                    on_complete=replica_done,
                )
                self._real_requests_add()
            else:
                req = MemRequest(
                    op, channel_id, subchannel,
                    bank=self._rng.randrange(len(channel.banks)),
                    row=self._rng.randrange(1 << 14),
                    col=0,
                    app_id=self.app_id, traffic=TrafficClass.SECURE,
                    on_complete=replica_done,
                )
                self._dummy_requests_add()
            self._enqueue_or_hold(channel, req)

    # ------------------------------------------------------------------
    def _enqueue_or_hold(self, channel: Channel, req: MemRequest) -> None:
        if channel.can_accept(req.op):
            channel.enqueue(req)
        else:
            channel.notify_on_space(
                lambda: self._enqueue_or_hold(channel, req)
            )

    def _finish(
        self,
        on_complete: Optional[Callable[[int], None]],
        op: OpType,
        last_time: int,
    ) -> None:
        done = last_time + self.crypto_ticks

        def fire() -> None:
            self._outstanding -= 1
            if self._space_waiters:
                waiters, self._space_waiters = self._space_waiters, []
                for callback in waiters:
                    callback()
            if on_complete is not None:
                on_complete(self.engine.now)

        self.engine.at(max(done, self.engine.now), fire)
        if op is OpType.WRITE:
            self._writes_add()
        else:
            self._reads_add()
