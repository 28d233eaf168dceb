"""Deterministic discrete-event engine.

The engine keeps a priority queue of ``(time, sequence, callback, arg)``
entries.  Events scheduled for the same tick fire in scheduling order
(FIFO), which makes whole-system runs bit-for-bit reproducible regardless
of dict ordering or hash seeds.

Scheduling forms
----------------
:meth:`Engine.at` / :meth:`Engine.after` schedule a no-argument callback;
:meth:`Engine.call_at` schedules ``callback(arg)`` at an absolute time,
so hot callers (DRAM completion, link delivery) don't have to allocate a
closure per request just to carry one value.  Every scheduling call
returns a handle accepted by :meth:`Engine.cancel`.

Time units
----------
All times are integer *ticks*; :data:`TICKS_PER_NS` ticks equal one
nanosecond.  Helper converters :func:`ns`, :func:`cpu_cycles` and
:func:`mem_cycles` translate the units the D-ORAM paper speaks in (CPU
cycles at 3.2 GHz, DDR3-1600 memory-bus cycles, nanoseconds of link latency)
into ticks.
"""

from __future__ import annotations

from functools import partial
from heapq import heappop, heappush
from typing import Callable, List, Optional, Tuple

#: Number of engine ticks per nanosecond.  16 makes both the CPU clock
#: (3.2 GHz -> 0.3125 ns -> 5 ticks) and the DDR3-1600 bus clock
#: (800 MHz -> 1.25 ns -> 20 ticks) integral.
TICKS_PER_NS = 16

#: Ticks per CPU cycle at the paper's 3.2 GHz core clock (Table II).
CPU_CYCLE_TICKS = 5

#: Ticks per DDR3-1600 memory-bus cycle (800 MHz).
MEM_CYCLE_TICKS = 20


def ns(value: float) -> int:
    """Convert nanoseconds to integer ticks (rounding to nearest tick)."""
    return int(round(value * TICKS_PER_NS))


def cpu_cycles(value: float) -> int:
    """Convert 3.2 GHz CPU cycles to ticks."""
    return int(round(value * CPU_CYCLE_TICKS))


def mem_cycles(value: float) -> int:
    """Convert DDR3-1600 memory-bus cycles to ticks."""
    return int(round(value * MEM_CYCLE_TICKS))


class _NullDispatchTracer:
    """Disabled-tracing sentinel.

    The engine is the substrate every model imports, so it cannot depend
    on :mod:`repro.obs`; this minimal stand-in mirrors the
    ``tracer.enabled`` guard protocol of ``repro.obs.tracer.NULL_TRACER``
    and keeps the disabled hot path to one attribute load per dispatch.
    """

    enabled = False


_NULL_DISPATCH_TRACER = _NullDispatchTracer()

#: Sentinel ``arg`` marking a no-argument callback (``at``/``after`` form).
_NO_ARG = object()

#: Ledger length that triggers pruning of settled bookings (see
#: :meth:`Engine.book`).
_LEDGER_CAP = 1024

#: A scheduled-event handle: the immutable ``(time, seq, callback, arg)``
#: heap entry.  ``seq`` is unique per engine, so heap comparison never
#: reaches the callback, and cancellation tombstones the entry by seq.
EventHandle = Tuple[int, int, Callable, object]

#: A ledger booking ``(time, seq, callback, count, stride)``: ``count``
#: no-op completions at ``time`` whose events would have taken the seqs
#: ``seq, seq + stride, ...`` -- each one the heap entry
#: ``(time, s, callback, time)`` (see :meth:`Engine.book`).
Booking = Tuple[int, int, Callable[[int], None], int, int]


def _callback_label(callback: Callable[..., None]) -> str:
    """Deterministic short label for a scheduled callback (no ids/reprs)."""
    name = getattr(callback, "__qualname__", None)
    if name is None:
        func = getattr(callback, "func", None)  # functools.partial
        name = getattr(func, "__qualname__", None) or type(callback).__name__
    return name


class Engine:
    """A minimal, deterministic discrete-event scheduler.

    Components schedule callbacks with :meth:`at` (absolute time) or
    :meth:`after` (relative delay) -- or the allocation-free
    :meth:`call_at` ``(callback, arg)`` form -- and
    the engine dispatches them in ``(time, scheduling order)`` order.  A
    callback may schedule further events, including at the current time.

    Example
    -------
    >>> eng = Engine()
    >>> fired = []
    >>> _ = eng.after(10, lambda: fired.append(eng.now))
    >>> eng.run()
    >>> fired
    [10]
    """

    def __init__(self, tracer=None, periodic: str = "lazy") -> None:
        """``tracer`` (a :class:`repro.obs.tracer.Tracer`) enables
        per-dispatch events under the ``engine`` category; dispatch
        tracing is opt-in because it emits one event per callback.

        ``periodic`` selects whether the whole-run loop may elide
        dispatches that change nothing model-visible: ``"lazy"``
        (default) lets channels book no-op completions instead of
        dispatching them, lets lockstep sub-channels run as one lane
        group, and lets a channel serve a run of back-to-back slots in
        one dispatch while its next service would be the next pop,
        counting each elided occurrence into the event census as
        synthesized; ``"eager"`` turns all three off and dispatches one
        event per occurrence (the census-invariance differential
        oracle).  Any other value raises ``ValueError``.
        """
        if periodic not in ("lazy", "eager"):
            raise ValueError(f"unknown periodic mode {periodic!r}")
        self.now: int = 0
        self._queue: List[EventHandle] = []
        #: Single scheduling entry point: hot callers cache this bound
        #: callable instead of inlining ``heappush``.
        self._push: Callable[[EventHandle], None] = partial(
            heappush, self._queue
        )
        self._seq = 0
        self._events_dispatched = 0
        #: Occurrences accounted without a dispatch: booked no-op
        #: completions (see ``_ledger``), the followers' services of a
        #: live lane group, and the continued slots of a service run
        #: (see ``_slot``).  Added into :attr:`events_dispatched` so the
        #: logical census (and every serialized SimResult) is identical
        #: across periodic modes.
        self._synthesized = 0
        #: True when bookings, lane groups and service runs may elide
        #: dispatches.
        self.lazy_periodic = periodic == "lazy"
        #: Seqs of cancelled-but-not-yet-popped entries.  The dispatch
        #: loop guards on the set's truthiness, so the no-cancellation
        #: hot path pays a single local check per event.
        self._cancelled_seqs = set()
        self._stopped = False
        #: Booked no-op completions (see :meth:`book`): runs of the heap
        #: entries a model would have pushed for completions that do
        #: nothing when dispatched.  A list only while the whole-run lazy
        #: loop runs (``None`` otherwise, so every other mode dispatches
        #: them); each completion is counted as synthesized when booked
        #: and settled when :meth:`run` exits.
        self._ledger: Optional[List[Booking]] = None
        self._ledger_cap = _LEDGER_CAP
        #: ``(time, seq)`` of the latest continued slot: a service a
        #: channel served in the dispatch before it instead of pushing
        #: it, which it may do only while the ledger is a list and the
        #: service would be the next pop.  Occurrences are handled in
        #: increasing ``(time, seq)`` order, dispatched or continued, so
        #: the later of this and the dispatched event is the one a run
        #: stopped or raised in.
        self._slot: Tuple[int, int] = (-1, -1)
        #: Live lane groups (``repro.dram.channel.LaneGroup``): lockstep
        #: channels that run their lanes' services in one dispatch.
        #: Each has a ``wake()`` that splits it into per-lane events; the
        #: whole-run loop calls it on a stop or an exception.
        self._lane_groups: List = []
        self._tracer = (
            tracer.category("engine") if tracer is not None
            else _NULL_DISPATCH_TRACER
        )

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------
    def at(self, time: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` at absolute tick ``time``.

        Scheduling in the past is an error: it would silently reorder
        causality, the classic discrete-event bug.  Returns a handle for
        :meth:`cancel`.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule event at {time} < now {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = (time, seq, callback, _NO_ARG)
        self._push(entry)
        return entry

    def after(self, delay: int, callback: Callable[[], None]) -> EventHandle:
        """Schedule ``callback`` ``delay`` ticks from now (``delay >= 0``)."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        seq = self._seq
        self._seq = seq + 1
        entry = (self.now + delay, seq, callback, _NO_ARG)
        self._push(entry)
        return entry

    def call_at(
        self, time: int, callback: Callable[[object], None], arg
    ) -> EventHandle:
        """Schedule ``callback(arg)`` at absolute tick ``time``.

        The hot-path form: carries one value without a per-event closure.
        """
        if time < self.now:
            raise ValueError(
                f"cannot schedule event at {time} < now {self.now}"
            )
        seq = self._seq
        self._seq = seq + 1
        entry = (time, seq, callback, arg)
        self._push(entry)
        return entry

    def cancel(self, handle: EventHandle) -> bool:
        """Cancel a scheduled event.

        Returns ``True`` if the event was still pending (it will never
        fire and does not count as a dispatch), ``False`` if it already
        dispatched or was cancelled before.  Cancellation tombstones the
        entry by sequence number; the entry itself stays in the heap
        until it surfaces, so cancel costs one membership scan and no
        heap restructuring.
        """
        if handle[1] in self._cancelled_seqs or handle not in self._queue:
            return False
        self._cancelled_seqs.add(handle[1])
        return True

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def step(self) -> bool:
        """Dispatch the next event.  Returns ``False`` when queue is empty."""
        queue = self._queue
        cancelled = self._cancelled_seqs
        while queue:
            time, seq, callback, arg = heappop(queue)
            if cancelled and seq in cancelled:
                cancelled.remove(seq)
                continue
            self.now = time
            self._events_dispatched += 1
            tracer = self._tracer
            if tracer.enabled:
                tracer.instant(
                    "engine", "dispatch", "engine", time,
                    {"seq": seq, "fn": _callback_label(callback)},
                )
            if arg is _NO_ARG:
                callback()
            else:
                callback(arg)
            return True
        return False

    def run(self) -> None:
        """Run until the queue drains or :meth:`stop` fires.

        A run with the ``engine`` trace category on dispatches through
        :meth:`step`, which emits each dispatch event.  Every other run
        takes the whole-run loop below.
        """
        self._stopped = False
        if self._tracer.enabled:
            while self.step() and not self._stopped:
                pass
            return
        # The dispatch loop binds everything it touches every iteration
        # to locals and drains each tick as a same-tick batch, so
        # `self.now` is only touched when time advances.  The running
        # event count lives in a local and is written back on exit (no
        # mid-callback reader exists; `events_dispatched` is a post-run
        # measurement).  In lazy mode models may book no-op completions
        # instead of pushing them (settled on exit), and a channel may
        # serve its next slot without a dispatch.
        queue = self._queue
        pop = heappop
        no_arg = _NO_ARG
        cancelled = self._cancelled_seqs  # same set object for the run
        dispatched = self._events_dispatched
        ledger = [] if self.lazy_periodic else None
        self._ledger = ledger
        drained = False
        time = seq = 0
        try:
            while queue:
                time = queue[0][0]
                self.now = time
                # Same-tick FIFO batch: heap order is (time, seq), so
                # events a callback schedules for this same tick join
                # the batch behind the already-queued ones.
                while True:
                    _t, seq, callback, arg = pop(queue)
                    if cancelled and seq in cancelled:
                        cancelled.remove(seq)
                    else:
                        dispatched += 1
                        if arg is no_arg:
                            callback()
                        else:
                            callback(arg)
                        if self._stopped:
                            return
                    if not queue or queue[0][0] != time:
                        break
            drained = True
        finally:
            self._events_dispatched = dispatched
            self._ledger = None
            if not drained:
                # A resumed run and `pending` must see every lane's
                # own pending events.
                for group in list(self._lane_groups):
                    group.wake()
            if ledger:
                # Stop or exception: the exit event is the dispatched
                # one, or a slot it continued into.
                self._settle_ledger(
                    ledger,
                    None if drained else max((time, seq), self._slot),
                )

    def book(self, time: int, seq: int, callback: Callable[[int], None],
             count: int = 1, stride: int = 1) -> None:
        """Book ``count`` no-op completions instead of pushing them.

        Only valid while :attr:`_ledger` is a list (the untraced whole-run
        lazy loop; callers check).  The model has already taken the seqs
        ``seq, seq + stride, ...`` that the ``count`` events
        ``(time, s, callback, time)`` would have had; each completion
        counts as one synthesized event now, and the booking stands for
        all of them when :meth:`run` settles the ledger.  Bookings timed
        before ``now`` are pruned once the ledger outgrows its cap, which
        doubles past the live bookings so pruning stays amortized O(1).
        """
        ledger = self._ledger
        ledger.append((time, seq, callback, count, stride))
        self._synthesized += count
        if len(ledger) > self._ledger_cap:
            now = self.now
            ledger[:] = [booking for booking in ledger if booking[0] >= now]
            self._ledger_cap = max(_LEDGER_CAP, 2 * len(ledger))

    def _settle_ledger(
        self, ledger: List[Booking], exit_event: Optional[Tuple[int, int]]
    ) -> None:
        """Leave the queue and clock as if every booked completion had
        been pushed.

        ``exit_event`` is the ``(time, seq)`` of the event the run stopped
        or raised in, or ``None`` when the queue drained.  Completions
        after it (same-tick ones with a later seq included) would still
        be queued: they are un-counted and pushed as the real no-op
        events they stand for, so a resumed run and :attr:`pending` see
        them.  A drained run would have dispatched them all, the last one
        ending it, so ``now`` advances to the latest booked time.  A
        booking of ``count`` completions settles exactly as ``count``
        one-completion bookings would.
        """
        if exit_event is None:
            last = max(booking[0] for booking in ledger)
            if last > self.now:
                self.now = last
            return
        exit_time, exit_seq = exit_event
        push = self._push
        late = 0
        for time, seq, callback, count, stride in ledger:
            if time < exit_time:
                continue
            end = seq + count * stride
            if time == exit_time and seq <= exit_seq:
                # Same tick: only the seqs after the exit event's are owed.
                seq += ((exit_seq - seq) // stride + 1) * stride
            for owed in range(seq, end, stride):
                push((time, owed, callback, time))
                late += 1
        self._synthesized -= late

    def _discard_cancelled(self, time: int) -> bool:
        """Drop the cancelled entries heading the queue at or before
        ``time``, as the dispatch loop drops them on reaching them; True
        when no live entry is left at or before ``time``."""
        queue = self._queue
        cancelled = self._cancelled_seqs
        while queue and queue[0][0] <= time:
            seq = queue[0][1]
            if seq not in cancelled:
                return False
            heappop(queue)
            cancelled.remove(seq)
        return True

    def stop(self) -> None:
        """Stop :meth:`run` after the current event returns."""
        self._stopped = True

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def pending(self) -> int:
        """Number of live (non-cancelled) events still queued."""
        return len(self._queue) - len(self._cancelled_seqs)

    @property
    def events_dispatched(self) -> int:
        """Logical event census: dispatches plus synthesized occurrences.

        Booked no-op completions, lane groups and service runs remove
        heap events but account every occurrence here, so this census
        (and the SimResult payloads built from it) is identical whichever
        ``periodic`` mode ran.  :attr:`raw_events_dispatched` counts actual dispatches
        only.
        """
        return self._events_dispatched + self._synthesized

    @property
    def raw_events_dispatched(self) -> int:
        """Events actually popped and dispatched (no synthesized ones)."""
        return self._events_dispatched

    @property
    def events_synthesized(self) -> int:
        """Occurrences accounted without a dispatch (booked completions,
        lane-group followers' services and continued service slots)."""
        return self._synthesized
