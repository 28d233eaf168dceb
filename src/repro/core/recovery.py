"""Secure-link recovery: framing, retransmission, watchdog, failover.

The happy-path D-ORAM protocol (:class:`~repro.core.frontend.DelegatorBackend`)
assumes every 72 B packet crosses the BOB link intact.  The threat model
does not: the link and the DIMMs are untrusted, so packets may be
corrupted (MAC verification fails at the receiver), dropped, or delayed.
This module adds the machinery that survives that -- armed only when a
:class:`~repro.faults.plan.FaultPlan` is attached to a run, and built so
that with no faults firing it is schedule-identical to the plain backend
(bit-identical golden digests; see ``tests/faults/test_empty_plan_identity``).

Protocol (stop-and-wait, one outstanding request per S-App session):

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
* A request unanswered for ``deadline_ns`` retransmits at exactly
  ``sent + deadline`` -- again deterministic from the wire.
* ``watchdog_misses`` consecutive deadline expiries (no up-link frame at
  all: the SD's heartbeat is its response stream) declare the SD dead.
  The session fails over to a host-side baseline Path ORAM engine built
  on demand, which walks the same tree through the normal-traffic BOB
  path; the failover is recorded in stats and the ``fault`` trace
  category.

:class:`GuardedRead` is the DRAM leg of the same story: a transient
read bit-flip is detected by the per-bucket MAC, and the block is
re-issued to its sub-channel (bounded by ``block_read_retries``) while
the ORAM sequencer's read phase simply stays open until the clean copy
lands -- the protocol-level "re-issue corrupted path blocks" rule.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from repro.bob.channel import BobChannel
from repro.core.config import PACKET_BYTES
from repro.dram.commands import OpType, TrafficClass
from repro.faults.plan import RecoveryParams
from repro.oram.controller import BlockSink, OramController
from repro.oram.layout import BlockPlacement
from repro.sim.engine import Engine, ns
from repro.sim.stats import StatSet


class FaultRecoveryError(RuntimeError):
    """A fault exhausted its bounded recovery (retry limit hit)."""


class Frame:
    """One secure-link frame: request, response, or NAK.

    Frames are the fault-aware unit of the armed link protocol: the
    injector calls :meth:`link_fault` on them, and a fresh object is
    allocated per transmission (never reused across retransmissions, so
    a corruption mark can't leak into a later clean send).
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
    lands.
    """

    __slots__ = ("inner", "reissue", "faults", "limit", "attempts", "corrupt")

    def __init__(self, inner: Callable[[int], None], faults,
                 limit: int) -> None:
        self.inner = inner
        #: Set by the issue site right after the MemRequest exists.
        self.reissue: Optional[Callable[[], None]] = None
        self.faults = faults
        self.limit = limit
        self.attempts = 0
        self.corrupt = False

    def fault_mark_corrupt(self) -> bool:
        self.corrupt = True
        return True

    def __call__(self, time: int) -> None:
        if self.corrupt:
            self.corrupt = False
            self.attempts += 1
            if self.attempts > self.limit:
                raise FaultRecoveryError(
                    f"block read failed MAC verification {self.attempts} "
                    f"times; retry bound {self.limit} exhausted"
                )
            self.faults.count("block_rereads")
            self.faults.trace("block_reread", "dram",
                              {"attempt": self.attempts})
            self.reissue()
            return
        self.inner(time)


class SecureLinkSession:
    """CPU-side endpoint of the recovery protocol for one S-App tree."""

    def __init__(
        self,
        engine: Engine,
        secure_bob: BobChannel,
        delegator,
        controller: OramController,
        params: RecoveryParams,
        faults,
        fallback_factory: Callable[[], object],
        cpu_process_ns: float = 2.0,
        name: str = "sdlink",
    ) -> None:
        self.engine = engine
        self.secure_bob = secure_bob
        self.delegator = delegator
        self.controller = controller
        self.params = params
        self.faults = faults
        self.fallback_factory = fallback_factory
        self.cpu_process_ticks = ns(cpu_process_ns)
        self.name = name
        self.stats = StatSet(name)
        faults.register_stats(name, self.stats)
        #: Bound by the system builder once the frontend (and so the
        #: pacer) exists; supplies the fixed-rate slot width ``t``.
        self.pacer = None
        self.t_ticks = 0
        self.deadline_ticks = params.deadline_ticks
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
        if self._attempt > self.params.max_attempts:
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
        if self._misses >= self.params.watchdog_misses:
            self._failover("watchdog")
            return
        self._attempt += 1
        if self._attempt > self.params.max_attempts:
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


class FailoverBackend:
    """Frontend backend that rides a session (and survives its failover).

    Duck-typed to :class:`repro.core.frontend.OramBackend` (not a
    subclass, to keep this module importable from the delegator layer).
    """

    def __init__(self, session: SecureLinkSession) -> None:
        self.session = session

    @property
    def num_user_blocks(self) -> int:
        return self.session.controller.config.num_user_blocks

    def submit(self, block_id: Optional[int],
               on_response: Callable[[int], None]) -> None:
        self.session.submit(block_id, on_response)


class BobChannelSink(BlockSink):
    """Host-side block sink for failover under the BOB architecture.

    The fallback Path ORAM engine runs on the processor, so its path
    blocks cross the serial links as ordinary traffic
    (:meth:`BobChannel.submit`), tagged ``SECURE`` for the schedulers.
    Reads are MAC-verified at the host via :class:`GuardedRead` --
    failover must not give up the DRAM-flip protection.
    """

    def __init__(self, bobs: Dict[int, BobChannel], app_id: int,
                 faults=None, retry_limit: int = 16) -> None:
        self.bobs = bobs
        self.app_id = app_id
        self.faults = faults
        self.retry_limit = retry_limit

    def issue_phase(
        self,
        placements: List[BlockPlacement],
        op: OpType,
        on_done: Callable[[int], None],
    ) -> Tuple[List[BlockPlacement], int]:
        """Per-block issue: each block is its own link packet, and reads
        are MAC-checked (and re-issued) one by one."""
        stalled = []
        owed = 0
        for placement in placements:
            bob = self.bobs[placement.channel]
            if not bob.can_accept(op):
                stalled.append(placement)
                continue
            on_complete = on_done
            if self.faults is not None and op is OpType.READ:
                guard = GuardedRead(on_done, self.faults, self.retry_limit)
                guard.reissue = (
                    lambda b=bob, p=placement, g=guard: self._reissue(b, p, g)
                )
                on_complete = guard
            bob.submit(op, placement.subchannel, placement.bank,
                       placement.row, placement.col, self.app_id,
                       TrafficClass.SECURE, on_complete)
            owed += 1
        return stalled, owed

    def _reissue(self, bob: BobChannel, placement: BlockPlacement,
                 guard: GuardedRead) -> None:
        if bob.can_accept(OpType.READ):
            bob.submit(OpType.READ, placement.subchannel, placement.bank,
                       placement.row, placement.col, self.app_id,
                       TrafficClass.SECURE, guard)
        else:
            bob.notify_on_space(
                lambda: self._reissue(bob, placement, guard)
            )

    def notify_on_space(self, callback: Callable[[], None]) -> None:
        fired = [False]

        def once() -> None:
            if not fired[0]:
                fired[0] = True
                callback()

        for bob in self.bobs.values():
            bob.notify_on_space(once)
