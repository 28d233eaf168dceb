"""The CPU<->SD secure-link protocol: framing, retransmission, failover.

Every delegated S-App talks to its secure delegator (SD) through one
:class:`SecureLinkSession`: a 72 B request :class:`Frame` down the
secure BOB link, the SD's 72 B response frame back up.  That is the only
CPU<->SD path, with or without a :class:`~repro.faults.plan.FaultPlan`.
With no plan attached nothing can lose or garble a frame, so the session
arms no deadline timer and the exchange is the bare Section III-B round
trip: request down, SD processing, ORAM read phase, response up,
``cpu_process`` later the S-App sees it.

The link and the DIMMs are untrusted, though, so an attached plan may
corrupt (MAC verification fails at the receiver), drop, or delay
packets.  The session survives that (stop-and-wait, one outstanding
request per S-App session):

* Every CPU->SD request carries a session sequence number.  The SD caches
  the last completed response per session, so a retransmitted request is
  answered from the cache instead of re-running the ORAM access.
* MAC failure at the SD -> a NAK frame after the SD processing delay; MAC
  failure or a NAK at the CPU -> retransmission exactly
  ``cpu_process + t`` ticks after the frame arrived -- the same gap every
  normal emission uses, so a retransmission occupies the slot the next
  (real or dummy) request would have used and the wire stays a
  deterministic function of observable arrivals (no new timing channel;
  audited by :func:`repro.obs.leakage.check_recovery_discipline`).
* A request unanswered for its deadline retransmits at exactly
  ``sent + deadline`` -- again deterministic from the wire.  The
  deadline is ``deadline_ns`` times the number of sessions sharing the
  SD: the SD serves requests FIFO, so a healthy response may wait behind
  every other session's request.
* ``watchdog_misses`` consecutive deadline expiries (no up-link frame at
  all: the SD's heartbeat is its response stream) declare the SD dead.
  The session fails over to a host-side baseline Path ORAM engine built
  on demand, which walks the same tree through the normal-traffic BOB
  path (:class:`~repro.core.sinks.BobChannelSink`); the failover is
  recorded in stats and the ``fault`` trace category.

:class:`GuardedRead` is the DRAM leg of the same story: a transient
read bit-flip is detected by the per-bucket MAC, and the block is
re-issued to its sub-channel (bounded by ``block_read_retries``) while
the ORAM sequencer's read phase simply stays open until the clean copy
lands -- the protocol-level "re-issue corrupted path blocks" rule.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.bob.channel import BobChannel
from repro.core.config import CPU_PROCESS_NS, PACKET_BYTES
from repro.oram.controller import OramController
from repro.sim.engine import Engine, ns
from repro.sim.stats import StatSet


class FaultRecoveryError(RuntimeError):
    """A fault exhausted its bounded recovery (retry limit hit)."""


class Frame:
    """One secure-link frame: request, response, or NAK.

    The injector calls :meth:`link_fault` on frames, and a fresh object
    is allocated per transmission (never reused across retransmissions,
    so a corruption mark can't leak into a later clean send).
    """

    __slots__ = ("kind", "seq", "block_id", "attempt", "session", "corrupt")

    REQ = "req"
    RESP = "resp"
    NAK = "nak"

    def __init__(self, kind: str, seq: int, block_id: Optional[int],
                 attempt: int, session: "SecureLinkSession") -> None:
        self.kind = kind
        self.seq = seq
        self.block_id = block_id
        self.attempt = attempt
        self.session = session
        self.corrupt = False

    def link_fault(self, kind: str) -> bool:
        """Absorb one injected link fault; False = not injectable here."""
        if kind == "corrupt":
            self.corrupt = True
            return True
        if kind == "drop":
            # Loss is fine: the sender's deadline timer recovers it.
            return True
        return False


class GuardedRead:
    """MAC-checked block-read completion with bounded re-issue.

    Wraps a read-phase ``on_complete``: the DRAM fault site marks the
    object via :meth:`fault_mark_corrupt` when the burst it completes was
    flipped; at completion time the guard then re-issues the same request
    through ``reissue`` instead of delivering garbage upward.  The inner
    callback (the ORAM controller's block accounting) only ever sees
    clean reads, so the read phase stays open until a verified copy
    lands.  The re-issue bound is the plan's ``block_read_retries``.
    """

    __slots__ = ("inner", "reissue", "faults", "attempts", "corrupt")

    def __init__(self, inner: Callable[[int], None], faults) -> None:
        self.inner = inner
        #: Set by the issue site right after the MemRequest exists.
        self.reissue: Optional[Callable[[], None]] = None
        self.faults = faults
        self.attempts = 0
        self.corrupt = False

    def fault_mark_corrupt(self) -> bool:
        self.corrupt = True
        return True

    def __call__(self, time: int) -> None:
        if self.corrupt:
            self.corrupt = False
            self.attempts += 1
            limit = self.faults.recovery.block_read_retries
            if self.attempts > limit:
                raise FaultRecoveryError(
                    f"block read failed MAC verification {self.attempts} "
                    f"times; retry bound {limit} exhausted"
                )
            self.faults.count("block_rereads")
            self.faults.trace("block_reread", "dram",
                              {"attempt": self.attempts})
            self.reissue()
            return
        self.inner(time)


class SecureLinkSession:
    """CPU-side endpoint of the secure link for one S-App tree.

    The fixed-rate frontend's backend: :meth:`submit` carries one
    request to the SD and back, and survives the SD's failover.
    ``faults`` (a :class:`~repro.faults.inject.FaultController`) attaches
    the plan whose faults the session must survive; without one no
    deadline timer is armed, since nothing can lose a frame.
    ``sd_sessions`` is the number of sessions sharing the SD (the
    deadline scales with it).  ``fallback_factory`` builds the
    host-side backend at failover.
    """

    def __init__(
        self,
        engine: Engine,
        secure_bob: BobChannel,
        delegator,
        controller: OramController,
        faults=None,
        fallback_factory: Optional[Callable[[], object]] = None,
        sd_sessions: int = 1,
        name: str = "sdlink",
    ) -> None:
        self.engine = engine
        self.secure_bob = secure_bob
        self.delegator = delegator
        self.controller = controller
        self.faults = faults
        self.fallback_factory = fallback_factory
        self.cpu_process_ticks = ns(CPU_PROCESS_NS)
        self.name = name
        self.stats = StatSet(name)
        #: Per-attempt response deadline; ``None`` arms no timer.
        self.deadline_ticks: Optional[int] = None
        if faults is not None:
            faults.register_stats(name, self.stats)
            self.deadline_ticks = ns(
                faults.recovery.deadline_ns * sd_sessions
            )
        #: Bound once the frontend (and so the pacer) exists; supplies
        #: the fixed-rate slot width ``t``.
        self.pacer = None
        self.t_ticks = 0
        self._seq = 0
        self._attempt = 0
        self._awaiting = False
        self._block_id: Optional[int] = None
        self._on_response: Optional[Callable[[int], None]] = None
        self._deadline_handle = None
        self._misses = 0
        self._failed = False
        #: The host-side baseline backend, built on demand at failover.
        self._fallback = None

    def bind_pacer(self, pacer) -> None:
        self.pacer = pacer
        self.t_ticks = pacer.t_ticks

    @property
    def failed(self) -> bool:
        return self._failed

    @property
    def num_user_blocks(self) -> int:
        return self.controller.config.num_user_blocks

    # ------------------------------------------------------------------
    # Request side
    # ------------------------------------------------------------------
    def submit(self, block_id: Optional[int],
               on_response: Callable[[int], None]) -> None:
        if self._failed:
            self._fallback.submit(block_id, on_response)
            return
        self._seq += 1
        self._attempt = 1
        self._awaiting = True
        self._block_id = block_id
        self._on_response = on_response
        self._send()

    def _send(self) -> None:
        """Transmit the current attempt and arm its response deadline."""
        if self._attempt > 1:
            self.stats.counter("retransmissions").add()
            if self.pacer is not None:
                self.pacer.retransmitted()
        frame = Frame(Frame.REQ, self._seq, self._block_id,
                      self._attempt, self)
        self.secure_bob.send_down(
            PACKET_BYTES, self.delegator.receive_frame, arg=frame
        )
        if self.deadline_ticks is not None:
            self._deadline_handle = self.engine.call_at(
                self.engine.now + self.deadline_ticks,
                self._deadline_fired, self._seq,
            )

    # ------------------------------------------------------------------
    # Response side (up-link delivery callback)
    # ------------------------------------------------------------------
    def _frame_arrived(self, frame: Frame) -> None:
        if self._failed:
            self.stats.counter("frames_after_failover").add()
            return
        # Any up-link frame -- even garbled -- proves the SD is alive.
        self._misses = 0
        now = self.engine.now
        if frame.corrupt:
            self.stats.counter("mac_failures").add()
            self.faults.trace("cpu_mac_fail", self.name, {"seq": self._seq})
            self._slot_retransmit(now)
            return
        if frame.kind == Frame.NAK:
            self.stats.counter("naks").add()
            self._slot_retransmit(now)
            return
        if (frame.kind != Frame.RESP or frame.seq != self._seq
                or not self._awaiting):
            self.stats.counter("stale_frames").add()
            return
        self._awaiting = False
        self._cancel_deadline()
        if self._attempt > 1:
            self.stats.counter("recovered_requests").add()
        on_response = self._on_response
        self._on_response = None
        when = now + self.cpu_process_ticks
        self.engine.call_at(when, on_response, when)

    def _slot_retransmit(self, now: int) -> None:
        """Retransmit in the next fixed-rate slot after ``now``.

        The gap is ``cpu_process + t`` -- identical to the gap between a
        response and the next normal emission, so an observer cannot
        tell a retransmission slot from a fresh (real or dummy) request.
        """
        if not self._awaiting:
            self.stats.counter("stale_frames").add()
            return
        self._cancel_deadline()
        self._attempt += 1
        if self._attempt > self.faults.recovery.max_attempts:
            self._failover("retry bound")
            return
        self.engine.call_at(
            now + self.cpu_process_ticks + self.t_ticks,
            self._retransmit_emit, self._seq,
        )

    def _retransmit_emit(self, seq: int) -> None:
        if self._failed or not self._awaiting or seq != self._seq:
            return
        self._send()

    # ------------------------------------------------------------------
    # Deadline / watchdog
    # ------------------------------------------------------------------
    def _deadline_fired(self, seq: int) -> None:
        if self._failed or not self._awaiting or seq != self._seq:
            return
        self._deadline_handle = None
        self._misses += 1
        self.stats.counter("timeouts").add()
        self.faults.trace("timeout", self.name,
                          {"seq": seq, "misses": self._misses})
        recovery = self.faults.recovery
        if self._misses >= recovery.watchdog_misses:
            self._failover("watchdog")
            return
        self._attempt += 1
        if self._attempt > recovery.max_attempts:
            self._failover("retry bound")
            return
        # Retransmit exactly at deadline expiry: sent_k = sent_{k-1} + D,
        # a wire-deterministic schedule.
        self._send()

    def _cancel_deadline(self) -> None:
        handle = self._deadline_handle
        if handle is not None:
            self._deadline_handle = None
            self.engine.cancel(handle)

    # ------------------------------------------------------------------
    # Failover
    # ------------------------------------------------------------------
    def _failover(self, why: str) -> None:
        self._failed = True
        self._cancel_deadline()
        self._awaiting = False
        self.stats.counter("failovers").add()
        self.faults.count("failovers")
        self.faults.trace("failover", self.name,
                          {"why": why, "seq": self._seq})
        self._fallback = self.fallback_factory()
        on_response = self._on_response
        self._on_response = None
        if on_response is not None:
            # The in-flight request is replayed on the host-side engine.
            self._fallback.submit(self._block_id, on_response)
