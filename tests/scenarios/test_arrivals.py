"""Property tests on the seeded arrival generators (hypothesis).

The determinism contract the service layer builds on:

* equal ``(spec, seed)`` => bit-identical tick sequences;
* per-stream times strictly increase (>= 1 tick gaps);
* the empirical rate tracks the configured rate.
"""

import pytest
from hypothesis import given, settings, strategies as st

from repro.scenarios.arrivals import (
    ARRIVAL_KINDS,
    ArrivalSpec,
    BurstyArrivals,
    DiurnalArrivals,
    PoissonArrivals,
    derive_seed,
    make_stream,
)
from repro.sim.engine import TICKS_PER_NS, ns

seeds = st.integers(min_value=0, max_value=2**63 - 1)
kinds = st.sampled_from(ARRIVAL_KINDS)

#: 50 us at the default 200 krps: ~10 arrivals per stream -- enough to
#: exercise state machinery without slowing hypothesis down.
SHORT_HORIZON = ns(50_000)


def _spec(kind: str, rate: float = 200_000.0) -> ArrivalSpec:
    return ArrivalSpec(kind=kind, rate_rps=rate)


def take_until(stream, horizon):
    """Consume every arrival strictly before ``horizon`` (exclusive: the
    horizon tick itself belongs to the drained epilogue, not the
    offered-load window)."""
    out = []
    while stream.next_due < horizon:
        out.append(stream.take())
    return out


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(kind=kinds, seed=seeds)
def test_same_seed_bit_identical(kind, seed):
    spec = _spec(kind)
    first = take_until(make_stream(spec, seed), SHORT_HORIZON)
    second = take_until(make_stream(spec, seed), SHORT_HORIZON)
    assert first == second


@settings(max_examples=60, deadline=None)
@given(kind=kinds, seed=seeds)
def test_incremental_take_matches_take_until(kind, seed):
    """peek/take one at a time is the same sequence as a bulk drain."""
    spec = _spec(kind)
    bulk = take_until(make_stream(spec, seed), SHORT_HORIZON)
    stream = make_stream(spec, seed)
    stepped = []
    while stream.peek() < SHORT_HORIZON:
        due = stream.peek()
        assert stream.take() == due
        stepped.append(due)
    assert stepped == bulk
    assert stream.occurrences == len(bulk)


@settings(max_examples=60, deadline=None)
@given(kind=kinds, seed=seeds)
def test_strictly_increasing_integer_ticks(kind, seed):
    times = take_until(make_stream(_spec(kind), seed), SHORT_HORIZON)
    assert all(isinstance(t, int) for t in times)
    assert all(b > a for a, b in zip(times, times[1:]))
    assert all(t < SHORT_HORIZON for t in times)


# ---------------------------------------------------------------------------
# Rate tracking
# ---------------------------------------------------------------------------

@settings(max_examples=20, deadline=None)
@given(seed=seeds)
def test_poisson_empirical_rate_within_tolerance(seed):
    rate = 1_000_000.0
    horizon_ns = 2_000_000.0  # expect ~2000 arrivals
    times = take_until(make_stream(_spec("poisson", rate), seed),
                       ns(horizon_ns))
    expected = rate * horizon_ns * 1e-9
    # 25 % tolerance is ~11 sigma at n=2000: effectively impossible to
    # trip by chance, tight enough to catch a rate-unit bug instantly.
    assert abs(len(times) - expected) < 0.25 * expected


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_diurnal_long_run_rate_matches_mean(seed):
    """Thinning is calibrated so the long-run mean equals rate_rps."""
    rate = 1_000_000.0
    horizon_ns = 2_000_000.0  # 10 full default periods
    times = take_until(make_stream(_spec("diurnal", rate), seed),
                       ns(horizon_ns))
    expected = rate * horizon_ns * 1e-9
    assert abs(len(times) - expected) < 0.30 * expected


@settings(max_examples=10, deadline=None)
@given(seed=seeds)
def test_bursty_rate_between_base_and_burst(seed):
    spec = _spec("bursty", 500_000.0)
    horizon_ns = 2_000_000.0
    times = take_until(make_stream(spec, seed), ns(horizon_ns))
    base = spec.rate_rps * horizon_ns * 1e-9
    burst = spec.effective_burst_rate_rps * horizon_ns * 1e-9
    assert 0.5 * base < len(times) < burst


# ---------------------------------------------------------------------------
# Per-tenant seeds
# ---------------------------------------------------------------------------

@settings(max_examples=60, deadline=None)
@given(base_seed=seeds,
       a=st.integers(min_value=0, max_value=63),
       b=st.integers(min_value=0, max_value=63))
def test_derive_seed_injective_over_tenants(base_seed, a, b):
    if a == b:
        assert derive_seed(base_seed, a) == derive_seed(base_seed, b)
    else:
        assert derive_seed(base_seed, a) != derive_seed(base_seed, b)


# ---------------------------------------------------------------------------
# Spec plumbing
# ---------------------------------------------------------------------------

class TestArrivalSpec:
    def test_json_round_trip(self):
        spec = ArrivalSpec(kind="bursty", rate_rps=123_456.0,
                           burst_rate_rps=999_999.0, dwell_ns=5_000.0)
        assert ArrivalSpec.from_json_dict(spec.to_json_dict()) == spec

    def test_rejects_unknown_kind(self):
        with pytest.raises(ValueError):
            ArrivalSpec(kind="constant")

    @pytest.mark.parametrize("field,value", [
        ("rate_rps", 0.0), ("rate_rps", -1.0), ("burst_rate_rps", -1.0),
        ("dwell_ns", 0.0), ("period_ns", 0.0),
        ("trough_fraction", 0.0), ("trough_fraction", 1.5),
    ])
    def test_rejects_bad_fields(self, field, value):
        with pytest.raises(ValueError):
            ArrivalSpec(**{field: value})

    def test_mean_gap_ticks(self):
        spec = ArrivalSpec(rate_rps=1e9)  # one per ns
        assert spec.mean_gap_ticks == TICKS_PER_NS

    def test_burst_rate_defaults_to_5x(self):
        assert ArrivalSpec().effective_burst_rate_rps == \
            5.0 * ArrivalSpec().rate_rps
        assert ArrivalSpec(burst_rate_rps=7.0).effective_burst_rate_rps == 7.0

    def test_stream_classes(self):
        assert isinstance(make_stream(_spec("poisson"), 1), PoissonArrivals)
        assert isinstance(make_stream(_spec("bursty"), 1), BurstyArrivals)
        assert isinstance(make_stream(_spec("diurnal"), 1), DiurnalArrivals)
