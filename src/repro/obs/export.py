"""Trace exporters and the golden-run content digest.

Three consumers, three forms:

* **JSONL** (:func:`write_jsonl`) -- one canonical JSON object per line,
  greppable and diffable; the regression suite's native format.
* **Chrome trace_event** (:func:`chrome_trace`, :func:`write_chrome_trace`)
  -- loadable in ``chrome://tracing`` or https://ui.perfetto.dev: each
  component becomes a named thread lane, ORAM phases and DRAM bursts
  render as duration slices, snapshots as counter tracks.
* **Digest** (:func:`trace_digest`) -- sha256 over the canonical JSONL
  stream.  Because event payloads are pure simulator state (integer
  ticks, deterministic floats) the digest is bit-identical across runs,
  processes, and Python versions for the same configuration, which makes
  it a one-line regression oracle: any scheduling change -- even one that
  preserves aggregate means -- changes the digest.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, Iterable, List, Sequence

from repro.obs.tracer import PH_COMPLETE, PH_COUNTER, TraceEvent
from repro.sim.engine import TICKS_PER_NS

#: Microseconds per engine tick (Chrome trace timestamps are in us).
_US_PER_TICK = 1.0 / (TICKS_PER_NS * 1000.0)


def event_dict(event: TraceEvent) -> Dict[str, object]:
    """Canonical flat-dict form of one event."""
    return {
        "ts": event.ts,
        "cat": event.cat,
        "name": event.name,
        "track": event.track,
        "ph": event.ph,
        "dur": event.dur,
        "args": event.args,
    }


def canonical_line(event: TraceEvent) -> str:
    """Canonical JSON encoding: sorted keys, no whitespace."""
    return json.dumps(
        event_dict(event), sort_keys=True, separators=(",", ":")
    )


def canonical_lines(events: Iterable[TraceEvent]) -> Iterable[str]:
    for event in events:
        yield canonical_line(event)


def trace_digest(events: Iterable[TraceEvent]) -> str:
    """sha256 hexdigest over the canonical JSONL stream."""
    h = hashlib.sha256()
    for line in canonical_lines(events):
        h.update(line.encode("utf-8"))
        h.update(b"\n")
    return h.hexdigest()


def write_jsonl(events: Iterable[TraceEvent], path: str) -> int:
    """Write the canonical JSONL stream; returns the event count."""
    count = 0
    with open(path, "w") as fp:
        for line in canonical_lines(events):
            fp.write(line)
            fp.write("\n")
            count += 1
    return count


# ---------------------------------------------------------------------------
# Chrome trace_event format
# ---------------------------------------------------------------------------


def chrome_trace(
    events: Sequence[TraceEvent], process_name: str = "repro"
) -> Dict[str, object]:
    """Convert events to a Chrome ``trace_event`` JSON object.

    Ticks become microseconds.  Each distinct ``track`` is mapped to a
    thread id (in order of first appearance) and named via ``thread_name``
    metadata so Perfetto shows component names, not bare tids.
    """
    tids: Dict[str, int] = {}
    trace_events: List[Dict[str, object]] = [
        {
            "ph": "M", "pid": 1, "tid": 0, "name": "process_name",
            "args": {"name": process_name},
        }
    ]
    for event in events:
        tid = tids.get(event.track)
        if tid is None:
            tid = len(tids) + 1
            tids[event.track] = tid
            trace_events.append({
                "ph": "M", "pid": 1, "tid": tid, "name": "thread_name",
                "args": {"name": event.track},
            })
        entry: Dict[str, object] = {
            "ph": event.ph,
            "pid": 1,
            "tid": tid,
            "cat": event.cat,
            "name": event.name,
            "ts": event.ts * _US_PER_TICK,
            "args": event.args,
        }
        if event.ph == PH_COMPLETE:
            entry["dur"] = event.dur * _US_PER_TICK
        elif event.ph == PH_COUNTER:
            # Counter series values live directly in args.
            pass
        else:
            entry["s"] = "t"  # thread-scoped instant
        trace_events.append(entry)
    return {"traceEvents": trace_events, "displayTimeUnit": "ns"}


def write_chrome_trace(
    events: Sequence[TraceEvent], path: str, process_name: str = "repro"
) -> int:
    """Write the Chrome trace JSON; returns the exported event count."""
    doc = chrome_trace(events, process_name)
    with open(path, "w") as fp:
        json.dump(doc, fp)
    return len(events)
