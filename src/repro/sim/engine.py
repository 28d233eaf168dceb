"""Deterministic discrete-event engine.

The engine keeps a priority queue of ``(time, sequence, callback, arg)``
entries.  Events scheduled for the same tick fire in scheduling order
(FIFO), which makes whole-system runs bit-for-bit reproducible regardless
of dict ordering or hash seeds.

Scheduling forms
----------------
:meth:`Engine.at` / :meth:`Engine.after` schedule a no-argument callback;
:meth:`Engine.call_at` / :meth:`Engine.call_after` schedule ``callback(arg)``
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

#: Dispatch budget stand-in for "no ``max_events`` bound".
_NO_LIMIT = 1 << 62

#: A scheduled-event handle: the immutable ``(time, seq, callback, arg)``
#: heap entry.  ``seq`` is unique per engine, so heap comparison never
#: reaches the callback, and cancellation tombstones the entry by seq.
EventHandle = Tuple[int, int, Callable, object]


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
    :meth:`call_at` / :meth:`call_after` ``(callback, arg)`` forms -- and
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

        ``periodic`` selects how fixed-cadence model bookkeeping (rank
        refresh, the secure engine's emitter, core gap crunching) is
        materialized: ``"lazy"`` (default) lets models fast-forward
        quiescent stretches in closed form, synthesizing the skipped
        occurrences into the event census; ``"eager"`` forces the
        one-event-per-occurrence behavior (the census-invariance
        differential oracle).  Any other value raises ``ValueError``.
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
        #: Occurrences of periodic model work that lazy fast-forwarding
        #: reconstructed without a dispatch.  Added into
        #: :attr:`events_dispatched` so the logical census (and every
        #: serialized SimResult) is identical across periodic modes.
        self._synthesized = 0
        #: True when models may fast-forward periodic work (see above).
        self.lazy_periodic = periodic == "lazy"
        #: Seqs of cancelled-but-not-yet-popped entries.  The dispatch
        #: loop guards on the set's truthiness, so the no-cancellation
        #: hot path pays a single local check per event.
        self._cancelled_seqs = set()
        self._stopped = False
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

    def call_after(
        self, delay: int, callback: Callable[[object], None], arg
    ) -> EventHandle:
        """Schedule ``callback(arg)`` ``delay`` ticks from now."""
        if delay < 0:
            raise ValueError(f"negative delay {delay}")
        seq = self._seq
        self._seq = seq + 1
        entry = (self.now + delay, seq, callback, arg)
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

    def run(self, until: Optional[int] = None, max_events: Optional[int] = None) -> None:
        """Run until the queue drains, ``until`` ticks pass, or ``stop()``.

        Parameters
        ----------
        until:
            Absolute tick bound; events strictly after it stay queued and
            ``now`` is advanced to ``until`` -- unless :meth:`stop` fired,
            in which case time freezes at the stop point.  A bound before
            ``now`` raises ``ValueError``: like scheduling in the past
            (:meth:`at`), it would move simulated time backwards.
        max_events:
            Safety valve for tests; dispatching is capped at exactly
            ``max_events`` events and a ``RuntimeError`` is raised when
            more remain, so an accidental event livelock fails loudly
            instead of hanging.
        """
        if until is not None and until < self.now:
            raise ValueError(f"cannot run until {until} < now {self.now}")
        self._stopped = False
        # The dispatch loop binds everything it touches every iteration
        # to locals (heap, heappop, tracer guard, dispatch budget) and
        # drains each tick as a same-tick batch, so the `until` bound and
        # `self.now` are only touched when time advances.  The running
        # event count lives in a local and is written back on exit (no
        # mid-callback reader exists; `events_dispatched` is a
        # post-run measurement).
        queue = self._queue
        pop = heappop
        no_arg = _NO_ARG
        cancelled = self._cancelled_seqs  # same set object for the run
        tracer = self._tracer
        traced = tracer.enabled
        dispatched = self._events_dispatched
        limit = _NO_LIMIT if max_events is None else dispatched + max_events
        if until is None and max_events is None and not traced:
            # The production shape (whole-run, tracing off): same loop
            # minus the three per-event guards that cannot fire.  The
            # general loop below stays the single source of truth for
            # `until`/`max_events`/tracing semantics.
            try:
                while queue:
                    time = queue[0][0]
                    self.now = time
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
            finally:
                self._events_dispatched = dispatched
            return
        try:
            while queue:
                time = queue[0][0]
                if until is not None and time > until:
                    self.now = until
                    return
                self.now = time
                # Same-tick FIFO batch: heap order is (time, seq), so
                # events a callback schedules for this same tick join
                # the batch behind the already-queued ones.
                while True:
                    _t, seq, callback, arg = pop(queue)
                    if cancelled and seq in cancelled:
                        cancelled.remove(seq)
                    elif dispatched >= limit:
                        heappush(queue, (_t, seq, callback, arg))
                        raise RuntimeError(
                            f"exceeded max_events={max_events}; "
                            "possible livelock"
                        )
                    else:
                        dispatched += 1
                        if traced:
                            tracer.instant(
                                "engine", "dispatch", "engine", time,
                                {"seq": seq,
                                 "fn": _callback_label(callback)},
                            )
                        if arg is no_arg:
                            callback()
                        else:
                            callback(arg)
                        if self._stopped:
                            # Freeze time at the stop point: no `until`
                            # fixup on the way out.
                            return
                    if not queue or queue[0][0] != time:
                        break
            if until is not None and self.now < until:
                self.now = until
        finally:
            self._events_dispatched = dispatched

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

        Lazy periodic fast-forwarding removes heap events but accounts
        every occurrence it reconstructs here, so this census (and the
        SimResult payloads built from it) is identical whichever
        ``periodic`` mode ran.  :attr:`raw_events_dispatched` counts
        actual dispatches only.
        """
        return self._events_dispatched + self._synthesized

    @property
    def raw_events_dispatched(self) -> int:
        """Events actually popped and dispatched (no synthesized ones)."""
        return self._events_dispatched

    @property
    def events_synthesized(self) -> int:
        """Periodic occurrences reconstructed without a dispatch."""
        return self._synthesized

    def note_synthesized(self, count: int) -> None:
        """Account ``count`` periodic occurrences handled without a
        dispatch (see :attr:`events_dispatched`)."""
        self._synthesized += count

    def peek_time(self) -> Optional[int]:
        """Tick of the next live queued event, or ``None`` if none remain.

        Cancel tombstones at the head are drained on the way, so a
        cancelled event never bounds a caller's fast-forward.
        """
        cancelled = self._cancelled_seqs
        queue = self._queue
        while queue and cancelled and queue[0][1] in cancelled:
            cancelled.remove(heappop(queue)[1])
        return queue[0][0] if queue else None
