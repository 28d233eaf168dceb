"""Tracer core: category routing, event capture, null behaviour."""

import pytest

from repro.obs.tracer import (
    ALL_CATEGORIES,
    DEFAULT_CATEGORIES,
    NULL_TRACER,
    NullTracer,
    PH_COMPLETE,
    PH_COUNTER,
    PH_INSTANT,
    TraceEvent,
    Tracer,
)


class TestCategories:
    def test_default_excludes_engine(self):
        assert "engine" not in DEFAULT_CATEGORIES
        assert DEFAULT_CATEGORIES < ALL_CATEGORIES

    def test_default_constructor_uses_default_set(self):
        assert Tracer().categories == DEFAULT_CATEGORIES

    def test_unknown_category_rejected(self):
        with pytest.raises(ValueError, match="unknown trace categories"):
            Tracer(categories={"dram", "bogus"})

    def test_category_returns_self_when_captured(self):
        tracer = Tracer(categories={"dram"})
        assert tracer.category("dram") is tracer

    def test_category_returns_null_when_filtered(self):
        tracer = Tracer(categories={"dram"})
        assert tracer.category("link") is NULL_TRACER


class TestNullTracer:
    def test_disabled_flag(self):
        assert NULL_TRACER.enabled is False
        assert Tracer().enabled is True

    def test_category_is_identity(self):
        assert NULL_TRACER.category("dram") is NULL_TRACER

    def test_emissions_are_noops(self):
        null = NullTracer()
        null.instant("dram", "x", "t", 0)
        null.complete("dram", "x", "t", 0, 5)
        null.counter("stats", "x", "t", 0, {"v": 1})
        # No storage at all -- nothing to assert beyond "didn't raise".


class TestEmission:
    def test_instant(self):
        tracer = Tracer()
        tracer.instant("dram", "issue", "ch0", 42, {"bank": 3})
        (event,) = tracer.events
        assert isinstance(event, TraceEvent)
        assert (event.ts, event.cat, event.name, event.track) == (
            42, "dram", "issue", "ch0",
        )
        assert event.ph == PH_INSTANT
        assert event.dur == 0
        assert event.args == {"bank": 3}

    def test_instant_default_args_is_empty_dict(self):
        tracer = Tracer()
        tracer.instant("dram", "issue", "ch0", 0)
        assert tracer.events[0].args == {}

    def test_complete(self):
        tracer = Tracer()
        tracer.complete("oram", "read_phase", "oram0", 100, 50)
        (event,) = tracer.events
        assert event.ph == PH_COMPLETE
        assert (event.ts, event.dur) == (100, 50)

    def test_counter_copies_values(self):
        tracer = Tracer()
        values = {"depth": 4}
        tracer.counter("stats", "snap", "ch0", 7, values)
        values["depth"] = 99
        (event,) = tracer.events
        assert event.ph == PH_COUNTER
        assert event.args == {"depth": 4}

    def test_len_and_clear(self):
        tracer = Tracer()
        tracer.instant("dram", "a", "t", 0)
        tracer.instant("dram", "b", "t", 1)
        assert len(tracer) == 2
        tracer.events.clear()
        assert len(tracer) == 0
