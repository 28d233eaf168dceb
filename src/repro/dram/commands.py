"""Memory request objects exchanged between front ends and controllers."""

from __future__ import annotations

import enum
from typing import Callable, Optional


class OpType(enum.Enum):
    """Request direction as seen by the DRAM channel."""

    READ = "read"
    WRITE = "write"

    # Enum equality is member identity, so the identity hash is consistent
    # -- and C-speed, where ``Enum.__hash__`` is a Python-level call that
    # shows up in profiles under every enum-keyed dict operation.
    __hash__ = object.__hash__


#: Traffic-class tag for scheduler share policies: the ORAM engine's
#: requests are ``SECURE``, everything else is ``NORMAL``.
class TrafficClass(enum.Enum):
    NORMAL = "normal"
    SECURE = "secure"

    __hash__ = object.__hash__


def ignore_completion(_time: int) -> None:
    """No-op completion: for requests whose finish nobody waits on.

    Channels recognize this sentinel and, inside a lazy whole-run loop,
    book the completion in the engine's census instead of dispatching it
    (:meth:`repro.sim.engine.Engine.run`).  ORAM write phases use it: a
    written block is done once the memory system accepts it.
    """


class CompletionGroup:
    """One completion shared by a set of requests on one channel.

    The channel counts members down as it services them; only the last
    one serviced schedules ``callback`` (at the time and sequence number
    its own completion would have had), and the others complete as
    :func:`ignore_completion`.  Used for an ORAM read phase's share of a
    sub-channel, whose owner only needs to know when all of it is back.
    """

    __slots__ = ("remaining", "callback")

    def __init__(self, remaining: int, callback: Callable[[int], None]) -> None:
        self.remaining = remaining
        self.callback = callback


class MemRequest:
    """One cache-line access, already decoded to device coordinates.

    The front end (core, ORAM controller, or secure delegator) fills in the
    coordinates via the address-mapping layer, enqueues the request at a
    :class:`~repro.dram.channel.Channel`, and receives ``on_complete`` when
    the data burst finishes.

    A ``__slots__`` class (not a dataclass): requests are the single most
    allocated object on the simulation hot path, and ``is_write`` is
    precomputed at construction so the channel/bank fast paths read a
    plain attribute instead of testing ``op`` per use.  Identity (not
    field) equality -- two distinct requests are never "the same".
    """

    __slots__ = (
        "op",
        "channel",
        "subchannel",
        "bank",
        "row",
        "col",
        "app_id",
        "traffic",
        "arrival",
        "on_complete",
        "is_write",
        "_enq_seq",
    )

    def __init__(
        self,
        op: OpType,
        channel: int,
        subchannel: int,
        bank: int,
        row: int,
        col: int = 0,
        app_id: int = -1,
        traffic: TrafficClass = TrafficClass.NORMAL,
        arrival: int = 0,
        on_complete: Optional[Callable[[int], None]] = None,
    ) -> None:
        self.op = op
        self.channel = channel
        self.subchannel = subchannel
        self.bank = bank
        self.row = row
        #: Line offset within the row (column group); kept for address
        #: round-tripping and debug, not used by the timing model.
        self.col = col
        #: Originating application id; -1 marks engine-internal traffic.
        self.app_id = app_id
        self.traffic = traffic
        #: Set by the channel when the request is accepted.
        self.arrival = arrival
        #: Completion callback, invoked with the finish tick.
        self.on_complete = on_complete
        self.is_write = op is OpType.WRITE
        #: Channel-local FIFO sequence, assigned at enqueue (used by the
        #: indexed FR-FCFS pick to order row hits across banks).
        self._enq_seq = 0

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"MemRequest({self.op.value} app={self.app_id} "
            f"ch={self.channel}.{self.subchannel} b={self.bank} r={self.row})"
        )
