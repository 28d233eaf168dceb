"""The on-chip secure engine: S-App memory port + fixed-rate emission.

The S-App core sees an ordinary :class:`~repro.cpu.core.MemoryPort`; the
frontend queues its LLC misses and emits exactly one ORAM request every
``t`` cycles after the previous response (a dummy when the queue is
empty), per Section III-B.  Emission goes to a *backend*:

* :class:`~repro.core.recovery.SecureLinkSession` -- D-ORAM: a 72 B
  request frame down the secure channel's serial link to the SD, the
  72 B response frame back on the up link (the one CPU<->SD protocol,
  which also survives an attached fault plan).
* :class:`OnChipBackend` -- the Path ORAM baseline: the engine and ORAM
  controller are on the processor; the "response" is the read phase
  completing at the on-chip controller.  A failed-over session's
  host-side engine is one too.

Either way, the S-App load completes at the response, and stores complete
when accepted (the ORAM write happens obliviously later).
"""

from __future__ import annotations

from collections import deque
from typing import Callable, Deque, Optional, Tuple

from repro.core.delegator import OramSequencer
from repro.core.timing_guard import RequestPacer
from repro.cpu.core import MemoryPort
from repro.dram.commands import OpType
from repro.obs.tracer import NULL_TRACER
from repro.oram.controller import OramController
from repro.sim.engine import Engine, ns
from repro.sim.stats import StatSet


class OramBackend:
    """Interface: carry one request to the ORAM engine and back."""

    def submit(
        self, block_id: Optional[int], on_response: Callable[[int], None]
    ) -> None:  # pragma: no cover - interface
        raise NotImplementedError

    @property
    def num_user_blocks(self) -> int:  # pragma: no cover - interface
        raise NotImplementedError


class _DelayedResponse:
    """Schedule ``on_response(now)`` a fixed delay after a completion.

    ``engine.now`` at dispatch equals the scheduled tick, so passing the
    tick through ``call_at`` is identical to the former
    ``at(when, lambda: on_response(engine.now))`` -- without the two
    closures per ORAM operation.
    """

    __slots__ = ("engine", "delay", "on_response")

    def __init__(self, engine: Engine, delay: int, on_response) -> None:
        self.engine = engine
        self.delay = delay
        self.on_response = on_response

    def __call__(self, time: int) -> None:
        when = time + self.delay
        self.engine.call_at(when, self.on_response, when)


class OnChipBackend(OramBackend):
    """The Path ORAM baseline: engine on the processor die."""

    def __init__(self, engine: Engine, controller: OramController,
                 crypto_ns: float = 2.0) -> None:
        self.engine = engine
        self.sequencer = OramSequencer(controller)
        self.crypto_ticks = ns(crypto_ns)

    @property
    def num_user_blocks(self) -> int:
        return self.sequencer.controller.config.num_user_blocks

    def submit(
        self, block_id: Optional[int], on_response: Callable[[int], None]
    ) -> None:
        self.sequencer.submit(
            block_id,
            _DelayedResponse(self.engine, self.crypto_ticks, on_response),
        )


class OramFrontend(MemoryPort):
    """S-App memory port with fixed-rate real/dummy emission."""

    def __init__(
        self,
        engine: Engine,
        backend: OramBackend,
        t_cycles: int = 50,
        queue_depth: int = 8,
        name: str = "oram_fe",
        tracer=None,
    ) -> None:
        self.engine = engine
        self.backend = backend
        self.pacer = RequestPacer(t_cycles, name=f"{name}.pacer")
        self.queue_depth = queue_depth
        self.name = name
        self.stats = StatSet(name)
        self._tracer = (
            tracer if tracer is not None else NULL_TRACER
        ).category("oram")
        self._queue: Deque[Tuple[bool, int, Optional[Callable[[int], None]]]] = deque()
        self._inflight = False
        self._space_waiters: list = []
        self._emit_scheduled = False
        self._app_requests_add = self.stats.counter("app_requests").add
        self._backlog_record = self.stats.histogram("backlog").record
        self._response_record = self.stats.latency("oram_response").record
        # In-flight emission context for the bound _on_response (at most
        # one request is in flight at a time, so instance fields replace
        # the closure the emit path used to allocate per emission).
        self._resp_issued_at = 0
        self._resp_real = False
        self._resp_is_write = False
        self._resp_on_complete: Optional[Callable[[int], None]] = None

    def start(self) -> None:
        """Begin the fixed-rate emission loop at time zero."""
        self._schedule_emit(self.engine.now)

    # ------------------------------------------------------------------
    # MemoryPort (S-App core side)
    # ------------------------------------------------------------------
    @property
    def backlog(self) -> int:
        """App requests waiting behind the fixed-rate emitter."""
        return len(self._queue)

    def can_accept(self, op: OpType) -> bool:
        return len(self._queue) < self.queue_depth

    def issue(
        self,
        op: OpType,
        line_addr: int,
        app_id: int,
        on_complete: Optional[Callable[[int], None]],
    ) -> None:
        if not self.can_accept(op):
            raise RuntimeError("ORAM frontend queue full")
        block_id = line_addr % self.backend.num_user_blocks
        self._queue.append((op is OpType.WRITE, block_id, on_complete))
        self._app_requests_add()

    def notify_on_space(self, callback: Callable[[], None]) -> None:
        self._space_waiters.append(callback)

    # ------------------------------------------------------------------
    # Fixed-rate emission
    # ------------------------------------------------------------------
    def _schedule_emit(self, time: int) -> None:
        if self._emit_scheduled:
            return
        self._emit_scheduled = True
        self.engine.at(max(time, self.engine.now), self._emit)

    def _emit(self) -> None:
        self._emit_scheduled = False
        if self._inflight:
            return
        if self._queue:
            is_write, block_id, on_complete = self._queue.popleft()
            self._wake_space_waiters()
            real = True
        else:
            is_write, block_id, on_complete = False, None, None
            real = False
        self.pacer.emitted(real)
        self._backlog_record(len(self._queue))
        self._inflight = True
        issued_at = self.engine.now
        tracer = self._tracer
        if tracer.enabled:
            # The ground truth the leakage check correlates with the
            # wire: real and dummy emissions must look identical there.
            tracer.instant(
                "oram", "emit", self.name, issued_at, {"real": int(real)}
            )
        self._resp_issued_at = issued_at
        self._resp_real = real
        self._resp_is_write = is_write
        self._resp_on_complete = on_complete
        self.backend.submit(block_id, self._on_response)

    def _on_response(self, time: int) -> None:
        self._inflight = False
        issued_at = self._resp_issued_at
        on_complete = self._resp_on_complete
        self._resp_on_complete = None
        self._response_record(time - issued_at)
        tracer = self._tracer
        if tracer.enabled:
            tracer.instant(
                "oram", "response", self.name, time,
                {"lat": time - issued_at, "real": int(self._resp_real)},
            )
        if on_complete is not None and not self._resp_is_write:
            on_complete(time)
        self._schedule_emit(self.pacer.response_received(time))

    def _wake_space_waiters(self) -> None:
        if not self._space_waiters:
            return
        waiters, self._space_waiters = self._space_waiters, []
        for callback in waiters:
            callback()
