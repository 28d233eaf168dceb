"""Golden-trace regression suite.

Two properties of the golden schemes, one of every trace-pinned scheme,
plus one payload pin per name in ``SCHEMES`` (see ``TestPayloadPins``),
the shape pins (see ``TestShapePins``) and the command-log pins (see
``TestCommandLogPins``):

1. **Determinism** -- two fresh runs of the same golden configuration
   produce byte-identical canonical traces (same sha256 digest).
2. **Pinned history** -- every trace-pinned scheme's digest, in both
   periodic modes, matches the committed value in
   ``golden_digests.json``, so any change to event-level timing
   behaviour (scheduling order, packet times, phase boundaries) fails
   here even if every aggregate metric stays the same.  Intentional
   changes: regenerate with ``python tools/regen_goldens.py`` and commit
   the new digests alongside the change.
"""

import json
import os

import pytest

from repro.core.schemes import SCHEMES
from repro.obs.golden import (
    COMMAND_LOG_PINS,
    GOLDEN_BENCHMARK,
    GOLDEN_SCHEMES,
    GOLDEN_TRACE_LENGTH,
    command_log_digest,
    golden_digest,
    payload_digest,
    run_traced,
    shape_digests,
    shape_names,
    trace_pinned_schemes,
)

_GOLDEN_PATH = os.path.join(os.path.dirname(__file__), "golden_digests.json")

with open(_GOLDEN_PATH) as _fp:
    _GOLDEN = json.load(_fp)

TRACE_PINNED = trace_pinned_schemes()

#: Digest cache, by ``(scheme, periodic)``, so the pinned-value tests
#: reuse the determinism runs.
_digests = {}


def _digest(scheme, periodic="lazy"):
    key = (scheme, periodic)
    if key not in _digests:
        _digests[key] = golden_digest(scheme, periodic)
    return _digests[key]


def _digest_pair(scheme):
    return _digest(scheme), golden_digest(scheme)


class TestGoldenTraces:
    def test_fixture_matches_module_constants(self):
        assert _GOLDEN["benchmark"] == GOLDEN_BENCHMARK
        assert _GOLDEN["trace_length"] == GOLDEN_TRACE_LENGTH
        assert set(_GOLDEN["digests"]) == set(TRACE_PINNED)

    @pytest.mark.parametrize("scheme", GOLDEN_SCHEMES)
    def test_run_is_deterministic(self, scheme):
        first, second = _digest_pair(scheme)
        assert first == second, (
            f"{scheme}: two identical runs diverged -- the model is "
            "nondeterministic"
        )

    @pytest.mark.parametrize("scheme", TRACE_PINNED)
    def test_digest_matches_committed_golden(self, scheme):
        assert _digest(scheme) == _GOLDEN["digests"][scheme], (
            f"{scheme}: event-level timing behaviour changed. If "
            "intentional, run `python tools/regen_goldens.py` and commit "
            "the updated golden_digests.json with an explanation."
        )

    @pytest.mark.parametrize("scheme", TRACE_PINNED)
    def test_eager_digest_matches_committed_golden(self, scheme):
        # Eager mode is the census and lane-group oracle: the same
        # events, one dispatch per occurrence.
        assert _digest(scheme, "eager") == _GOLDEN["digests"][scheme], (
            f"{scheme} (eager): event-level timing behaviour changed."
        )

    def test_schemes_are_distinguishable(self):
        digests = {_digest(s) for s in TRACE_PINNED}
        assert len(digests) == len(TRACE_PINNED)

    def test_engine_category_off_by_default(self):
        _result, tracer = run_traced("doram")
        assert all(e.cat != "engine" for e in tracer.events)
        # The default capture still sees every instrumented layer.
        cats = {e.cat for e in tracer.events}
        assert {"dram", "link", "oram", "sd"} <= cats


class TestPayloadPins:
    """Every scheme's untraced result at the golden workload is pinned
    across commits: the lazy run must reproduce the committed digest of
    its canonical ``SimResult.to_json_dict()``, and the eager run (the
    census and lane-group oracle) the same digest."""

    def test_every_scheme_is_pinned(self):
        assert set(_GOLDEN["payloads"]) == set(SCHEMES)

    @pytest.mark.parametrize("periodic", ["lazy", "eager"])
    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_payload_matches_committed_pin(self, scheme, periodic):
        assert payload_digest(scheme, periodic) == \
            _GOLDEN["payloads"][scheme], (
                f"{scheme} ({periodic}): the run's result changed. If "
                "intentional, run `python tools/regen_goldens.py` and "
                "commit the updated golden_digests.json with an "
                "explanation."
            )


class TestShapePins:
    """The shapes the ``SCHEMES`` pins do not reach -- several trees or
    tenants per delegator, several secure channels, split trees with
    merged short reads, forked paths, fault plans, ORAM phases on a live
    lane group and a group woken by a stalled phase -- are pinned across
    commits: each entry's result and trace digests, lazy and eager, must
    equal the committed ones."""

    def test_every_shape_is_pinned(self):
        assert set(_GOLDEN["shapes"]) == set(shape_names())

    @pytest.mark.parametrize("periodic", ["lazy", "eager"])
    @pytest.mark.parametrize("name", shape_names())
    def test_shape_matches_committed_pin(self, name, periodic):
        assert shape_digests(name, periodic) == _GOLDEN["shapes"][name], (
            f"{name} ({periodic}): the run's result or trace changed. If "
            "intentional, run `python tools/regen_goldens.py` and commit "
            "the updated golden_digests.json with an explanation."
        )


class TestCommandLogPins:
    """The DRAM command logs the compliance referee replays are pinned
    across commits on two shapes: ``doram-dram-flip``, whose armed flips
    wake the secure channel's lane group so each lane logs its own
    commands, and ``doram/0-2s-fork`` under a capture-only empty plan,
    whose group stays live so the followers' logs are written from the
    leader's.  Every channel's log, lazy and eager, must hash to the
    committed digest."""

    def test_every_pin_is_committed(self):
        assert set(_GOLDEN["command_logs"]) == set(COMMAND_LOG_PINS)

    @pytest.mark.parametrize("periodic", ["lazy", "eager"])
    @pytest.mark.parametrize("name", COMMAND_LOG_PINS)
    def test_command_logs_match_committed_pin(self, name, periodic):
        assert command_log_digest(name, periodic) == \
            _GOLDEN["command_logs"][name], (
                f"{name} ({periodic}): a captured command log changed. If "
                "intentional, run `python tools/regen_goldens.py` and "
                "commit the updated golden_digests.json with an "
                "explanation."
            )


class TestEngineCategory:
    def test_dispatch_events_when_enabled(self):
        _result, tracer = run_traced(
            "doram", trace_length=50, categories={"engine"}
        )
        dispatches = [e for e in tracer.events if e.name == "dispatch"]
        assert dispatches, "engine category enabled but no dispatch events"
        assert all(e.track == "engine" for e in dispatches)
        # Labels are stable symbols (never reprs with memory addresses).
        assert all("0x" not in e.args["fn"] for e in dispatches)
