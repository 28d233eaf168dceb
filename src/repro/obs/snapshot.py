"""Periodic StatSet sampling: latency/occupancy over time, not just at end.

``build_and_run`` attaches a :class:`StatsSampler` when asked: every
``interval`` ticks it polls each registered source (a callable returning
``{series: number}``), stores the row for post-run plotting
(:attr:`StatsSampler.rows`, surfaced as ``SimResult.snapshots``), and
emits Chrome counter events into the tracer so the same series render as
counter tracks above the event lanes in Perfetto.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Tuple, Union

from repro.obs.tracer import NULL_TRACER
from repro.sim.engine import Engine

Number = Union[int, float]
Source = Callable[[], Dict[str, Number]]


class StatsSampler:
    """Samples registered stat sources on a fixed tick interval.

    The sampler keeps rescheduling itself while the simulation runs;
    ``build_and_run`` always ends a run via ``engine.stop()``, which
    leaves at most one pending (never-fired) sample event behind.
    """

    def __init__(self, engine: Engine, interval: int, tracer=None) -> None:
        if interval <= 0:
            raise ValueError("snapshot interval must be positive ticks")
        self.engine = engine
        self.interval = interval
        self.tracer = (tracer if tracer is not None else NULL_TRACER).category(
            "stats"
        )
        self._sources: List[Tuple[str, Source]] = []
        #: One row per sample: {"ts": tick, track: {series: value}, ...}.
        self.rows: List[Dict[str, object]] = []
        self._started = False

    def add_source(self, track: str, source: Source) -> None:
        """Register one component; ``source()`` returns its series."""
        self._sources.append((track, source))

    def start(self) -> None:
        """Take the first sample now and re-arm every ``interval`` ticks."""
        if self._started or not self._sources:
            return
        self._started = True
        self.engine.at(self.engine.now, self._sample)

    # ------------------------------------------------------------------
    def _sample(self) -> None:
        now = self.engine.now
        row: Dict[str, object] = {"ts": now}
        tracer = self.tracer
        for track, source in self._sources:
            values = source()
            row[track] = values
            if tracer.enabled:
                tracer.counter("stats", "snapshot", track, now, values)
        self.rows.append(row)
        self.engine.after(self.interval, self._sample)
