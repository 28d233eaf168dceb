"""StatsSampler: periodic polling into rows and counter events."""

import pytest

from repro.obs.snapshot import StatsSampler
from repro.obs.tracer import Tracer
from repro.sim.engine import Engine, ns


class TestStatsSampler:
    def test_samples_on_the_interval(self):
        engine = Engine()
        sampler = StatsSampler(engine, ns(10))
        ticks = {"n": 0}

        def source():
            ticks["n"] += 1
            return {"n": float(ticks["n"])}

        sampler.add_source("comp", source)
        sampler.start()
        engine.at(ns(95), engine.stop)
        engine.run()
        # Samples at 0, 10, ..., 90 ns.
        assert len(sampler.rows) == 10
        assert [row["ts"] for row in sampler.rows] == [
            ns(10 * i) for i in range(10)
        ]
        assert sampler.rows[0]["comp"] == {"n": 1.0}
        assert sampler.rows[-1]["comp"] == {"n": 10.0}

    def test_emits_counter_events(self):
        engine = Engine()
        tracer = Tracer()
        sampler = StatsSampler(engine, ns(10), tracer=tracer)
        sampler.add_source("comp", lambda: {"v": 2.0})
        sampler.start()
        engine.at(ns(25), engine.stop)
        engine.run()
        counters = [e for e in tracer.events if e.cat == "stats"]
        assert len(counters) == 3
        assert all(e.ph == "C" and e.args == {"v": 2.0} for e in counters)
        assert all(e.track == "comp" for e in counters)

    def test_stats_category_filtered_out(self):
        engine = Engine()
        tracer = Tracer(categories={"dram"})
        sampler = StatsSampler(engine, ns(10), tracer=tracer)
        sampler.add_source("comp", lambda: {"v": 1.0})
        sampler.start()
        engine.at(ns(25), engine.stop)
        engine.run()
        assert len(tracer.events) == 0
        assert len(sampler.rows) == 3  # rows still collected

    def test_no_sources_never_starts(self):
        engine = Engine()
        sampler = StatsSampler(engine, ns(10))
        sampler.start()
        engine.run()  # queue empty: returns immediately
        assert sampler.rows == []

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            StatsSampler(Engine(), 0)


class TestSystemIntegration:
    def test_run_scheme_collects_snapshots(self):
        from repro.core.schemes import run_scheme

        result = run_scheme("doram", "libq", trace_length=300,
                            snapshot_interval_ns=500.0)
        assert result.snapshots
        first = result.snapshots[0]
        assert first["ts"] == 0
        # Every DRAM (sub-)channel and the ORAM frontend are sampled.
        tracks = set(first) - {"ts"}
        assert "oram_fe0" in tracks
        assert any(t.startswith("ch") for t in tracks)
        assert set(first["oram_fe0"]) == {"backlog"}
        channel_track = sorted(t for t in tracks if t.startswith("ch"))[0]
        assert set(first[channel_track]) == {"queued", "util"}

    def test_component_stats_exported(self):
        from repro.core.schemes import run_scheme

        result = run_scheme("doram", "libq", trace_length=300)
        assert "oram_fe0" in result.component_stats
        stats = result.component_stats["oram_fe0"]
        assert stats["oram_response.min"] > 0
        assert stats["oram_response.max"] >= stats["oram_response.min"]
        assert stats["backlog.p50"] <= stats["backlog.p99"]
        assert "delegator" in result.component_stats

    def test_no_interval_means_no_snapshots(self):
        from repro.core.schemes import run_scheme

        result = run_scheme("doram", "libq", trace_length=300)
        assert result.snapshots == []
