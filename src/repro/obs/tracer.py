"""Structured event tracing for the timing models.

Every component that matters to the D-ORAM timing story (engine
dispatch, DRAM command issue, BOB link packets, ORAM path phases, the
secure delegator) can emit typed :class:`TraceEvent` records into a
:class:`Tracer`.  Two design rules keep this honest:

* **Zero overhead when disabled.**  Components hold a tracer reference
  obtained via :meth:`Tracer.category`; when tracing is off (or the
  component's category is filtered out) that reference is the shared
  :data:`NULL_TRACER`, whose ``enabled`` attribute is ``False``.  Hot
  paths guard every emission with ``if tracer.enabled:`` so the disabled
  cost is one attribute load and a branch -- no event objects, no string
  formatting.

* **Determinism.**  Event timestamps are engine ticks (integers), event
  payloads contain only ints, strings, and floats derived from simulator
  state, and events are appended in emission order, which the
  deterministic engine makes reproducible.  Two runs of the same
  configuration therefore produce byte-identical canonical traces --
  the property the golden-trace regression suite pins down (see
  :mod:`repro.obs.export` for the canonical form and digest).

Categories
----------
``engine``  event-loop dispatch (very high volume; off by default)
``dram``    DRAM command issue / scheduler decisions
``link``    serial-link packet send/receive
``oram``    ORAM frontend emission + path read/writeback phases
``sd``      secure-delegator state transitions and remote messages
``fault``   fault injections and recovery actions (``repro.faults``)
``stats``   periodic :class:`~repro.sim.stats.StatSet` snapshots
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional, Union

Number = Union[int, float]

#: Every category a component may emit into.
ALL_CATEGORIES = frozenset(
    {"engine", "dram", "link", "oram", "sd", "fault", "stats"}
)

#: Default capture set: everything except per-dispatch engine events,
#: which dwarf the rest of the trace (one event per simulator callback).
DEFAULT_CATEGORIES = frozenset(
    {"dram", "link", "oram", "sd", "fault", "stats"}
)

#: Chrome trace_event phase codes used here: instant, complete, counter.
PH_INSTANT = "i"
PH_COMPLETE = "X"
PH_COUNTER = "C"


class TraceEvent:
    """One typed trace record.

    ``ts`` and ``dur`` are engine ticks.  ``track`` names the emitting
    component (it becomes the thread lane in the Chrome export).
    ``args`` is a flat dict of ints/floats/strings.
    """

    __slots__ = ("ts", "cat", "name", "track", "ph", "dur", "args")

    def __init__(
        self,
        ts: int,
        cat: str,
        name: str,
        track: str,
        ph: str = PH_INSTANT,
        dur: int = 0,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        self.ts = ts
        self.cat = cat
        self.name = name
        self.track = track
        self.ph = ph
        self.dur = dur
        self.args = args if args is not None else {}

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return (
            f"TraceEvent({self.ts}, {self.cat}.{self.name}@{self.track}, "
            f"ph={self.ph}, dur={self.dur}, args={self.args})"
        )


class NullTracer:
    """The disabled tracer: every emission is a no-op.

    A single shared instance (:data:`NULL_TRACER`) stands in wherever a
    real tracer was not supplied, so components never need ``if tracer
    is not None`` checks -- only the cheap ``tracer.enabled`` guard.
    """

    enabled = False

    def category(self, cat: str) -> "NullTracer":
        return self

    def instant(self, cat, name, track, ts, args=None) -> None:
        pass

    def complete(self, cat, name, track, ts, dur, args=None) -> None:
        pass

    def counter(self, cat, name, track, ts, values) -> None:
        pass


#: Shared do-nothing tracer (see :class:`NullTracer`).
NULL_TRACER = NullTracer()


class Tracer:
    """Collects :class:`TraceEvent` records from instrumented components.

    Parameters
    ----------
    categories:
        Iterable of category names to capture; ``None`` selects
        :data:`DEFAULT_CATEGORIES`.  Pass :data:`ALL_CATEGORIES` (or
        include ``"engine"``) to also capture per-dispatch engine events.
    """

    enabled = True

    def __init__(self, categories: Optional[Iterable[str]] = None) -> None:
        if categories is None:
            self.categories = DEFAULT_CATEGORIES
        else:
            cats = frozenset(categories)
            unknown = cats - ALL_CATEGORIES
            if unknown:
                raise ValueError(
                    f"unknown trace categories {sorted(unknown)}; "
                    f"valid: {sorted(ALL_CATEGORIES)}"
                )
            self.categories = cats
        self.events: List[TraceEvent] = []

    # ------------------------------------------------------------------
    # Wiring helpers
    # ------------------------------------------------------------------
    def category(self, cat: str):
        """The tracer a component should hold for category ``cat``.

        Returns ``self`` when the category is captured, otherwise
        :data:`NULL_TRACER` -- so a filtered-out component pays the same
        near-zero cost as a fully disabled run.
        """
        return self if cat in self.categories else NULL_TRACER

    # ------------------------------------------------------------------
    # Emission
    # ------------------------------------------------------------------
    def instant(
        self,
        cat: str,
        name: str,
        track: str,
        ts: int,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """A point-in-time event (Chrome phase ``i``)."""
        self.events.append(TraceEvent(ts, cat, name, track, PH_INSTANT, 0, args))

    def complete(
        self,
        cat: str,
        name: str,
        track: str,
        ts: int,
        dur: int,
        args: Optional[Dict[str, object]] = None,
    ) -> None:
        """A duration event spanning ``[ts, ts + dur]`` (phase ``X``)."""
        self.events.append(
            TraceEvent(ts, cat, name, track, PH_COMPLETE, dur, args)
        )

    def counter(
        self,
        cat: str,
        name: str,
        track: str,
        ts: int,
        values: Dict[str, Number],
    ) -> None:
        """A sampled counter series (phase ``C``); ``values`` holds the
        series values at ``ts`` -- e.g. queue depth, utilization."""
        self.events.append(
            TraceEvent(ts, cat, name, track, PH_COUNTER, 0, dict(values))
        )

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.events)
