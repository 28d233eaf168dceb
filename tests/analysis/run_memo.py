"""A memoized ``run_scheme``, the ``run`` of tests that call experiment
drivers directly: each point simulates once per test session."""

from repro.analysis.sweep import RunPoint
from repro.core import schemes

_runs = {}


def run_scheme(scheme, benchmark, trace_length, segment=0, **overrides):
    """:func:`repro.core.schemes.run_scheme` of the point, simulated on
    its first call and remembered."""
    point = RunPoint(scheme, benchmark, trace_length, segment,
                     tuple(overrides.items()))
    if point not in _runs:
        _runs[point] = schemes.run_scheme(
            scheme, benchmark, trace_length, segment=segment, **overrides)
    return _runs[point]
