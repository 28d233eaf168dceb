"""Timing-channel checks on the CPU <-> SD secure link (Section III-B).

D-ORAM's security argument for the serial link is that its observable
packet stream is a deterministic function of the response stream: every
packet is exactly 72 B, and request ``k+1`` leaves the processor exactly
``t`` CPU cycles after response ``k`` was accepted (plus the fixed
CPU-side packet processing time), whether the S-App had a real request
queued or the engine emitted a dummy.  Nothing about demand, addresses,
or read/write mix is visible.

:func:`check_fixed_rate` replays that argument against a captured trace:
it extracts the secure channel's raw link packets and returns a list of
violation strings (empty = the property holds).  The regression test
asserts the list is empty for a stock run -- and *non*-empty when the
emission period is deliberately perturbed, proving the check has teeth.
"""

from __future__ import annotations

from typing import List, Optional, Sequence, Tuple

from repro.obs.tracer import TraceEvent
from repro.sim.engine import cpu_cycles, ns


def secure_link_packets(
    events: Sequence[TraceEvent], secure_channel: int = 0
) -> Tuple[List[TraceEvent], List[TraceEvent]]:
    """Raw secure-engine packets on the secure channel's two links.

    Returns ``(down, up)`` in wire order.  Only ``raw``-tagged packets are
    the ORAM request/response protocol; normal-traffic packets (NS-Apps
    sharing the secure channel) and split-tree ``remote`` messages ride
    the same links but are framed differently and are excluded.
    """
    down_track = f"bob{secure_channel}.down"
    up_track = f"bob{secure_channel}.up"
    down = [
        e for e in events
        if e.cat == "link" and e.name == "raw" and e.track == down_track
    ]
    up = [
        e for e in events
        if e.cat == "link" and e.name == "raw" and e.track == up_track
    ]
    return down, up


def check_fixed_rate(
    events: Sequence[TraceEvent],
    secure_channel: int = 0,
    t_cycles: int = 50,
    packet_bytes: Optional[int] = None,
) -> List[str]:
    """Verify the fixed-rate / fixed-size secure-link property.

    Checks, against the trace of one run:

    1. every request packet (down) and response packet (up) is exactly
       ``packet_bytes`` long;
    2. request ``k+1`` leaves exactly ``cpu_cycles(t_cycles) +
       ns(CPU_PROCESS_NS)`` ticks after response ``k`` arrived at the
       processor (the pacer's deterministic emission rule);
    3. requests and responses strictly alternate (one outstanding).

    Returns human-readable violation strings; empty means the property
    holds for every packet in the trace.
    """
    # The import is deferred so that ``repro.obs`` stays importable
    # from any layer (repro.core itself imports repro.obs.tracer).
    from repro.core.config import CPU_PROCESS_NS, PACKET_BYTES
    if packet_bytes is None:
        packet_bytes = PACKET_BYTES

    down, up = secure_link_packets(events, secure_channel)
    violations: List[str] = []
    if not down:
        return [f"no secure-engine packets on bob{secure_channel}.down"]

    for i, event in enumerate(down):
        nbytes = event.args.get("bytes")
        if nbytes != packet_bytes:
            violations.append(
                f"request {i}: {nbytes} B on the wire, expected "
                f"{packet_bytes} B"
            )
    for i, event in enumerate(up):
        nbytes = event.args.get("bytes")
        if nbytes != packet_bytes:
            violations.append(
                f"response {i}: {nbytes} B on the wire, expected "
                f"{packet_bytes} B"
            )

    if not len(up) <= len(down) <= len(up) + 1:
        violations.append(
            f"request/response counts do not alternate: "
            f"{len(down)} requests vs {len(up)} responses"
        )

    expected_gap = cpu_cycles(t_cycles) + ns(CPU_PROCESS_NS)
    pairs = min(len(up), len(down) - 1)
    for i in range(pairs):
        response_arrival = up[i].args["arrive"]
        next_request = down[i + 1].args["sent"]
        gap = next_request - response_arrival
        if gap != expected_gap:
            violations.append(
                f"request {i + 1} left {gap} ticks after response {i} "
                f"arrived; the fixed rate requires exactly {expected_gap} "
                f"(t={t_cycles} cycles + {CPU_PROCESS_NS} ns processing)"
            )
    return violations


def check_recovery_discipline(
    events: Sequence[TraceEvent],
    secure_channel: int = 0,
    t_cycles: int = 50,
    deadline_ns: float = 5000.0,
    packet_bytes: Optional[int] = None,
) -> List[str]:
    """The fixed-rate argument extended to the recovery protocol.

    With retransmission armed (:mod:`repro.core.recovery`) the strict
    alternation of :func:`check_fixed_rate` no longer holds -- a dropped
    response leaves a request unanswered, and a retransmission re-uses
    the slot a dummy would have occupied.  What *must* still hold for
    the link to leak nothing beyond the observable wire itself:

    1. every raw packet in either direction is exactly ``packet_bytes``;
    2. every request's send time is a deterministic function of
       observable wire events: ``sent == 0`` (the initial emission),
       ``sent == some up-packet arrival + (cpu_process + t)`` (the
       pacer's slot after any response/NAK/garbled frame), or ``sent ==
       some earlier request's send + deadline`` (the deadline
       retransmission rule).

    The stream falling silent (after a failover to the host-side
    engine) is allowed -- silence follows ``watchdog_misses`` deadline
    slots, itself a wire-deterministic event.  Returns violation
    strings; empty means the discipline holds.
    """
    from repro.core.config import CPU_PROCESS_NS, PACKET_BYTES
    if packet_bytes is None:
        packet_bytes = PACKET_BYTES

    down, up = secure_link_packets(events, secure_channel)
    violations: List[str] = []
    if not down:
        return [f"no secure-engine packets on bob{secure_channel}.down"]

    for label, stream in (("request", down), ("response", up)):
        for i, event in enumerate(stream):
            nbytes = event.args.get("bytes")
            if nbytes != packet_bytes:
                violations.append(
                    f"{label} {i}: {nbytes} B on the wire, expected "
                    f"{packet_bytes} B"
                )

    slot_gap = cpu_cycles(t_cycles) + ns(CPU_PROCESS_NS)
    deadline_ticks = ns(deadline_ns)
    slot_times = {e.args["arrive"] + slot_gap for e in up}
    sent_times = [e.args["sent"] for e in down]
    deadline_times = {sent + deadline_ticks for sent in sent_times}
    for i, sent in enumerate(sent_times):
        if sent == 0 or sent in slot_times or sent in deadline_times:
            continue
        violations.append(
            f"request {i} sent at {sent}: not the initial emission, not "
            f"an up-arrival + {slot_gap} slot, and not a prior send + "
            f"{deadline_ticks} deadline -- the send schedule is not a "
            f"function of the observable wire"
        )
    return violations
