"""T25mix / T33 channel-contention profiling (Section III-D, Fig. 12).

The quantities, as the paper defines them, are NS-App *average memory
access latency* slowdowns relative to a solo run:

* ``T33``   -- NS-Apps spread over the three normal channels only
  (each channel carries ~33 % of the traffic; D-ORAM/0);
* ``T25``   -- NS-Apps over all four channels with the S-App inactive;
* ``T25mix``-- NS-Apps over all four channels with the S-App hammering
  the secure channel (D-ORAM/7).

Only the ratio ``r = T25mix / T33`` drives the c decision, and the solo
denominator cancels in it, but all three values are exposed because
Fig. 8 plots the underlying latencies.  Profiling deliberately runs on a
*different trace segment* than the measured experiment (the paper uses a
different segment of the MSC trace) so Fig. 12 tests generalization, not
memorization.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

from repro.core.channel_sharing import SharingDecision, recommend_c
from repro.core.schemes import run_scheme


@dataclass(frozen=True)
class ProfileResult:
    """Profiled latencies (ns) and the derived decision."""

    benchmark: str
    latency_solo_ns: float
    latency_25_ns: float
    latency_25mix_ns: float
    latency_33_ns: float
    decision: SharingDecision

    @property
    def t25(self) -> float:
        return self.latency_25_ns / self.latency_solo_ns

    @property
    def t25mix(self) -> float:
        return self.latency_25mix_ns / self.latency_solo_ns

    @property
    def t33(self) -> float:
        return self.latency_33_ns / self.latency_solo_ns

    @property
    def ratio(self) -> float:
        return self.decision.ratio


def _ns_latency(result) -> float:
    """NS demand (read) latency in ns.

    Reads are what block retirement and set execution time; writes are
    posted into the controller's write queue and their queueing latency
    is invisible to the core.  Profiling on read latency gives the ratio
    the dynamic range the paper's rule needs (write-drain timing noise
    otherwise swamps the secure-channel signal).
    """
    read = result.ns_read_latency
    if read.count == 0:
        raise RuntimeError("profiling run recorded no NS reads")
    return read.mean / 16.0  # ticks -> ns


#: Schemes one profiling pass simulates (at the profiling segment).
PROFILE_SCHEMES = ("1ns", "7ns-4ch", "doram", "doram/0")


def profile_ratio(
    benchmark: str,
    trace_length: int = 3000,
    segment: int = 1,
    num_ns_apps: int = 7,
    runner: Callable = run_scheme,
) -> ProfileResult:
    """Run the three profiling configurations and apply the c rule.

    ``runner`` abstracts how the simulations execute; Fig. 12 passes
    its swept runs (:func:`repro.analysis.experiments.runs_from`), so
    the profiling runs are read from the sweep instead of re-simulated.
    """
    solo = runner(
        "1ns", benchmark, trace_length, segment=segment,
    )
    t25 = runner("7ns-4ch", benchmark, trace_length, segment=segment)
    t25mix = runner("doram", benchmark, trace_length, segment=segment)
    t33 = runner("doram/0", benchmark, trace_length, segment=segment)
    lat_solo = _ns_latency(solo)
    lat_25mix = _ns_latency(t25mix)
    lat_33 = _ns_latency(t33)
    ratio = lat_25mix / lat_33
    return ProfileResult(
        benchmark=benchmark,
        latency_solo_ns=lat_solo,
        latency_25_ns=_ns_latency(t25),
        latency_25mix_ns=lat_25mix,
        latency_33_ns=lat_33,
        decision=recommend_c(ratio, num_ns_apps),
    )
