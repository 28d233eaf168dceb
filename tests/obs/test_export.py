"""Exporters: canonical JSONL, digests, Chrome trace_event structure."""

import json

from repro.obs.export import (
    canonical_line,
    chrome_trace,
    event_dict,
    trace_digest,
    write_chrome_trace,
    write_jsonl,
)
from repro.obs.tracer import Tracer
from repro.sim.engine import TICKS_PER_NS


def _sample_tracer() -> Tracer:
    tracer = Tracer()
    tracer.instant("oram", "emit", "oram_fe0", 0, {"real": 1})
    tracer.complete("dram", "read", "ch0", 160, 64, {"bank": 2, "row": 9})
    tracer.counter("stats", "snapshot", "ch0", 320, {"queued": 3.0})
    return tracer


class TestCanonicalForm:
    def test_sorted_compact_json(self):
        tracer = _sample_tracer()
        line = canonical_line(tracer.events[1])
        # Keys sorted, no spaces: byte-stable across dict insert orders.
        assert line.index('"args"') < line.index('"cat"') < line.index('"ts"')
        assert ": " not in line and ", " not in line
        assert json.loads(line) == event_dict(tracer.events[1])

    def test_render_matches_write(self, tmp_path):
        tracer = _sample_tracer()
        path = tmp_path / "trace.jsonl"
        count = write_jsonl(tracer.events, str(path))
        assert count == 3
        assert path.read_text() == "".join(
            canonical_line(event) + "\n" for event in tracer.events
        )
        lines = path.read_text().splitlines()
        assert [json.loads(l)["name"] for l in lines] == [
            "emit", "read", "snapshot",
        ]


class TestDigest:
    def test_stable_for_equal_streams(self):
        assert trace_digest(_sample_tracer().events) == trace_digest(
            _sample_tracer().events
        )

    def test_sensitive_to_any_field(self):
        base = trace_digest(_sample_tracer().events)
        shifted = _sample_tracer()
        shifted.events[1].ts += 1
        renamed = _sample_tracer()
        renamed.events[0].args["real"] = 0
        reordered = _sample_tracer()
        reordered.events.reverse()
        digests = {base, trace_digest(shifted.events),
                   trace_digest(renamed.events),
                   trace_digest(reordered.events)}
        assert len(digests) == 4

    def test_empty_stream(self):
        assert trace_digest([]) == trace_digest([])
        assert trace_digest([]) != trace_digest(_sample_tracer().events)


class TestChromeTrace:
    def test_structure(self):
        doc = chrome_trace(_sample_tracer().events, process_name="unit")
        events = doc["traceEvents"]
        meta = [e for e in events if e["ph"] == "M"]
        assert meta[0]["name"] == "process_name"
        assert meta[0]["args"] == {"name": "unit"}
        # One thread_name per distinct track, in first-appearance order.
        names = [e["args"]["name"] for e in meta[1:]]
        assert names == ["oram_fe0", "ch0"]

    def test_timestamp_scaling_and_phases(self):
        doc = chrome_trace(_sample_tracer().events)
        payload = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        instant, complete, counter = payload
        # Ticks -> microseconds.
        assert complete["ts"] == 160 / (TICKS_PER_NS * 1000.0)
        assert complete["dur"] == 64 / (TICKS_PER_NS * 1000.0)
        assert instant["s"] == "t" and "dur" not in instant
        assert counter["ph"] == "C" and counter["args"] == {"queued": 3.0}

    def test_same_track_shares_tid(self):
        doc = chrome_trace(_sample_tracer().events)
        payload = [e for e in doc["traceEvents"] if e["ph"] != "M"]
        assert payload[1]["tid"] == payload[2]["tid"]  # both ch0
        assert payload[0]["tid"] != payload[1]["tid"]

    def test_write_is_valid_json(self, tmp_path):
        path = tmp_path / "trace.json"
        count = write_chrome_trace(_sample_tracer().events, str(path))
        assert count == 3
        doc = json.loads(path.read_text())
        assert doc["displayTimeUnit"] == "ns"
        assert len(doc["traceEvents"]) == 3 + 3  # process + 2 threads + events
