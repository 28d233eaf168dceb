"""One benchmark pass in a fresh interpreter.

    python benchmarks/e2e/child.py WORKLOAD SEED WORKDIR OUT.json SPAWNED TRACED

``run.py`` starts this with ``PYTHONPATH`` pointing at ``src``; it is not
meant to be run by hand.  ``SPAWNED`` is the parent's ``time.monotonic()``
just before the spawn (the clock is system-wide), so the import phase
includes interpreter start-up.  The pass writes one JSON document to
``OUT.json`` and prints nothing.  From its start to the end of its
workload it times short host-speed calibration slices (``speed.py``),
and it times every phase on their reference-host clock.

Every pass stamps ``Engine.__init__`` and ``Engine.run`` (two stamps per
simulation, none per event): they give the model-build time in
``setup_s`` and the events per second inside ``Engine.run``.  A traced
pass (``TRACED=1``) also runs the SIGPROF sampler, records a span around
each call to the other layers' public entry points, and collects the
SimResults and ScenarioResults to count simulated work.
"""

from __future__ import annotations

import functools
import json
import resource
import sys
from typing import Callable, Dict, List, Optional

from speed import Slicer


class Spans:
    """In-memory spans: ``[name, start, end, parent index]`` rows.

    Call spans nest on a stack.  A ``build`` span runs from
    ``Engine.__init__`` to that engine's first ``run`` and does not go on
    the stack, because it ends after the call that opened it returned.
    """

    def __init__(self, clock: Callable[[], float]) -> None:
        self.rows: List[list] = []
        self._stack: List[int] = []
        self._clock = clock

    def begin(self, name: str, call: bool = True) -> int:
        parent = self._stack[-1] if self._stack else -1
        self.rows.append([name, self._clock(), None, parent])
        index = len(self.rows) - 1
        if call:
            self._stack.append(index)
        return index

    def end(self, index: int) -> None:
        self.rows[index][2] = self._clock()
        if self._stack and self._stack[-1] == index:
            self._stack.pop()

    def self_seconds(self) -> Dict[str, float]:
        """Per span name: duration minus the time its children cover."""
        covered = [0.0] * len(self.rows)
        for name, start, end, parent in self.rows:
            if end is not None and parent >= 0:
                covered[parent] += end - start
        totals: Dict[str, float] = {}
        for (name, start, end, _parent), children in zip(self.rows, covered):
            if end is not None:
                totals[name] = totals.get(name, 0.0) + (end - start) - children
        return totals

    def total(self, name: str) -> float:
        return sum(end - start for n, start, end, _p in self.rows
                   if n == name and end is not None)


def _wrap(owner, attr: str, around) -> None:
    original = getattr(owner, attr)

    @functools.wraps(original)
    def wrapper(*args, **kwargs):
        return around(original, *args, **kwargs)

    setattr(owner, attr, wrapper)


def install_engine_stamps(spans: Spans, totals: Dict[str, int]) -> None:
    from repro.sim.engine import Engine

    building: Dict[int, int] = {}

    def init(original, engine, *args, **kwargs):
        building[id(engine)] = spans.begin("build", call=False)
        original(engine, *args, **kwargs)

    def run(original, engine, *args, **kwargs):
        build = building.pop(id(engine), None)
        if build is not None:
            spans.end(build)
        events = engine.events_dispatched
        dispatches = engine.raw_events_dispatched
        span = spans.begin("run")
        try:
            return original(engine, *args, **kwargs)
        finally:
            spans.end(span)
            totals["events"] += engine.events_dispatched - events
            totals["dispatches"] += engine.raw_events_dispatched - dispatches

    _wrap(Engine, "__init__", init)
    _wrap(Engine, "run", run)


def install_layer_probes(spans: Spans, sims: list, scenarios: list) -> None:
    import repro.core.schemes as schemes
    import repro.faults.invariants as invariants
    import repro.scenarios.service as service
    from repro.analysis.sweep import ResultStore

    def span(name):
        def around(original, *args, **kwargs):
            index = spans.begin(name)
            try:
                return original(*args, **kwargs)
            finally:
                spans.end(index)
        return around

    def collect(into):
        def around(original, *args, **kwargs):
            result = original(*args, **kwargs)
            into.append(result)
            return result
        return around

    _wrap(ResultStore, "get", span("store"))
    _wrap(ResultStore, "put", span("store"))
    _wrap(invariants, "check_fault_invariants", span("verify"))
    _wrap(invariants, "durability_check", span("durability"))
    _wrap(schemes, "build_and_run", collect(sims))
    _wrap(service, "run_scenario", collect(scenarios))


#: What a ``doram`` invocation imports, plus the modules the workloads
#: reach that the CLI loads lazily.
IMPORTS = ("repro.cli", "repro.faults.campaign", "repro.faults.invariants",
           "repro.scenarios.service")


def run_pass(workload: str, seed: int, workdir: str, spawned: float,
             traced: bool) -> Dict[str, object]:
    slicer = Slicer()
    slicer.start(spawned)
    sampler = None
    if traced:
        from sampler import Sampler

        sampler = Sampler()
        sampler.start()
    import importlib

    for module in IMPORTS:
        importlib.import_module(module)
    import_s = slicer.ref_clock()

    import workloads

    spans = Spans(slicer.ref_clock)
    totals = {"events": 0, "dispatches": 0}
    sims: list = []
    scenarios: list = []
    install_engine_stamps(spans, totals)
    if traced:
        install_layer_probes(spans, sims, scenarios)
    outcome = workloads.WORKLOADS[workload](seed, workdir)
    if sampler is not None:
        sampler.stop()
    slicer.stop()

    doc: Dict[str, object] = {
        "slice_s": slicer.spent_s,
        "slices": len(slicer.slices),
        "speed_factor": slicer.factor(),
        "import_s": import_s,
        "build_s": spans.total("build"),
        "run_s": spans.total("run"),
        "events": totals["events"],
        "dispatches": totals["dispatches"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "attempted": outcome.attempted,
        "failures": outcome.failures,
        "digest": outcome.digest,
        "extra": outcome.extra,
    }
    if traced:
        doc.update({
            "phases": spans.self_seconds(),
            "self_s": sampler.self_seconds(),
            "samples": sampler.samples,
            "cpu_s": sampler.cpu_s,
            "counts": workloads.layer_counts(sims, scenarios, outcome.extra),
            "spans": spans.rows,
        })
    return doc


def main(argv: Optional[List[str]] = None) -> int:
    workload, seed, workdir, out_path, spawned, traced = (
        argv if argv is not None else sys.argv[1:])
    doc = run_pass(workload, int(seed), workdir, float(spawned),
                   traced == "1")
    with open(out_path, "w") as fp:
        json.dump(doc, fp)
    return 0


if __name__ == "__main__":
    sys.exit(main())
