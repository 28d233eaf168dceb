"""Trace record format."""

import pytest

from repro.trace.trace_format import TraceRecord


class TestTraceRecord:
    def test_negative_gap_rejected(self):
        with pytest.raises(ValueError):
            TraceRecord(-1, False, 0)

    def test_negative_address_rejected(self):
        with pytest.raises(ValueError):
            TraceRecord(0, False, -1)

    def test_frozen(self):
        rec = TraceRecord(1, True, 2)
        with pytest.raises(AttributeError):
            rec.gap = 5
