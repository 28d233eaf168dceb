"""Statistics primitives shared by every timing model.

The paper reports three kinds of numbers and these classes cover them all:

* execution-time slowdowns (Figs. 4, 9, 10, 11) -- computed from per-core
  finish times collected in a :class:`StatSet`;
* average memory access latencies, split by read/write and by channel
  (Figs. 8, 13) -- :class:`LatencyStat`;
* traffic accounting such as Table I's extra-message counts --
  :class:`Counter` and :class:`Histogram`.

Recording is on the simulation hot path (every serviced DRAM request
touches one latency stat), so the primitives carry ``__slots__``,
histograms count into a dense list (a few int ops per record, no dict
lookups), and components are expected to pre-bind the ``record``/``add``
bound methods they call per event rather than re-resolving stats by name.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Optional


class Counter:
    """A named monotonically increasing counter."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def add(self, amount: int = 1) -> None:
        self.value += amount

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Counter({self.name}={self.value})"


class LatencyStat:
    """Streaming latency aggregate (count / total / min / max).

    Latencies are recorded in ticks and reported in nanoseconds by the
    analysis layer; this class stays unit-agnostic.
    """

    __slots__ = ("name", "count", "total", "min", "max")

    def __init__(self, name: str) -> None:
        self.name = name
        self.count = 0
        self.total = 0
        self.min: Optional[int] = None
        self.max: Optional[int] = None

    def record(self, latency: int) -> None:
        if latency < 0:
            raise ValueError(f"negative latency {latency} on {self.name}")
        self.count += 1
        self.total += latency
        bound = self.min
        if bound is None or latency < bound:
            self.min = latency
        bound = self.max
        if bound is None or latency > bound:
            self.max = latency

    @property
    def mean(self) -> float:
        """Average recorded latency, 0.0 when nothing was recorded."""
        return self.total / self.count if self.count else 0.0

    def merge(self, other: "LatencyStat") -> None:
        """Fold ``other`` into this aggregate."""
        self.count += other.count
        self.total += other.total
        for bound in (other.min, other.max):
            if bound is None:
                continue
            if self.min is None or bound < self.min:
                self.min = bound
            if self.max is None or bound > self.max:
                self.max = bound

    def set_merged(self, *parts: "LatencyStat") -> None:
        """Become the merge of ``parts``: exactly what recording every
        value recorded in them here would have left."""
        self.count = self.total = 0
        self.min = self.max = None
        for part in parts:
            self.merge(part)

    # -- (de)serialization (sweep result store) -------------------------
    def as_dict(self) -> Dict[str, object]:
        """JSON-safe state: exact integers only, so a round trip is
        bit-identical (the sweep store's equivalence guarantee)."""
        return {
            "name": self.name,
            "count": self.count,
            "total": self.total,
            "min": self.min,
            "max": self.max,
        }

    @classmethod
    def from_dict(cls, state: Dict[str, object]) -> "LatencyStat":
        stat = cls(str(state["name"]))
        stat.count = int(state["count"])
        stat.total = int(state["total"])
        stat.min = None if state["min"] is None else int(state["min"])
        stat.max = None if state["max"] is None else int(state["max"])
        return stat

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"LatencyStat({self.name}: n={self.count}, mean={self.mean:.1f})"


class Histogram:
    """Fixed-bucket histogram, used for queue depths and stash occupancy.

    Non-negative buckets (the only kind the models produce) count into a
    dense list indexed by bucket, so :meth:`record` is a couple of int
    compares and one indexed increment; negative buckets spill into a
    side dict.  :attr:`buckets` presents the populated-bucket dict view
    the analysis layer and tests consume.
    """

    __slots__ = ("name", "bucket_width", "count", "_dense", "_sparse")

    def __init__(self, name: str, bucket_width: int = 1) -> None:
        if bucket_width <= 0:
            raise ValueError("bucket_width must be positive")
        self.name = name
        self.bucket_width = bucket_width
        self._dense: List[int] = []
        self._sparse: Dict[int, int] = {}
        self.count = 0

    def record(self, value: int) -> None:
        width = self.bucket_width
        bucket = value if width == 1 else value // width
        self.count += 1
        if bucket >= 0:
            dense = self._dense
            if bucket < len(dense):
                dense[bucket] += 1
            else:
                dense.extend([0] * (bucket + 1 - len(dense)))
                dense[bucket] = 1
        else:
            self._sparse[bucket] = self._sparse.get(bucket, 0) + 1

    @property
    def buckets(self) -> Dict[int, int]:
        """Populated buckets as ``{bucket_index: count}``."""
        out = dict(self._sparse)
        for bucket, n in enumerate(self._dense):
            if n:
                out[bucket] = n
        return out

    def quantile(self, q: float) -> int:
        """Return the lower edge of the bucket containing quantile ``q``."""
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if self.count == 0:
            return 0
        width = self.bucket_width
        target = q * self.count
        seen = 0
        for bucket in sorted(self._sparse):
            seen += self._sparse[bucket]
            if seen >= target:
                return bucket * width
        for bucket, n in enumerate(self._dense):
            if n:
                seen += n
                if seen >= target:
                    return bucket * width
        return self.max_value

    @property
    def max_value(self) -> int:
        dense = self._dense
        for bucket in range(len(dense) - 1, -1, -1):
            if dense[bucket]:
                return bucket * self.bucket_width
        if self._sparse:
            return max(self._sparse) * self.bucket_width
        return 0


class StatSet:
    """A flat namespace of named statistics owned by one component.

    Components create stats lazily (``stats.counter("reads")``) so that a
    model only pays for what it records, and the analysis layer can walk
    everything via :meth:`as_dict`.
    """

    __slots__ = ("owner", "_counters", "_latencies", "_histograms")

    def __init__(self, owner: str) -> None:
        self.owner = owner
        self._counters: Dict[str, Counter] = {}
        self._latencies: Dict[str, LatencyStat] = {}
        self._histograms: Dict[str, Histogram] = {}

    def counter(self, name: str) -> Counter:
        stat = self._counters.get(name)
        if stat is None:
            stat = self._counters[name] = Counter(f"{self.owner}.{name}")
        return stat

    def latency(self, name: str) -> LatencyStat:
        stat = self._latencies.get(name)
        if stat is None:
            stat = self._latencies[name] = LatencyStat(f"{self.owner}.{name}")
        return stat

    def histogram(self, name: str, bucket_width: int = 1) -> Histogram:
        stat = self._histograms.get(name)
        if stat is None:
            stat = self._histograms[name] = Histogram(
                f"{self.owner}.{name}", bucket_width
            )
        return stat

    def copy(self, owner: str) -> "StatSet":
        """An independent copy under ``owner``'s names: every stat, with
        its values, in creation order."""
        out = StatSet(owner)
        for name, counter in self._counters.items():
            out.counter(name).value = counter.value
        for name, stat in self._latencies.items():
            mine = out.latency(name)
            mine.count, mine.total = stat.count, stat.total
            mine.min, mine.max = stat.min, stat.max
        for name, hist in self._histograms.items():
            mine = out.histogram(name, hist.bucket_width)
            mine.count = hist.count
            mine._dense = list(hist._dense)
            mine._sparse = dict(hist._sparse)
        return out

    def as_dict(self) -> Dict[str, float]:
        """Flatten to ``{name: value}`` for reporting.

        Latencies export count/mean/min/max (min/max as 0 when nothing
        was recorded, keeping the value space numeric); histograms
        export count, max, and the p50/p99 bucket edges.
        """
        out: Dict[str, float] = {}
        for name, counter in self._counters.items():
            out[name] = counter.value
        for name, stat in self._latencies.items():
            out[f"{name}.count"] = stat.count
            out[f"{name}.mean"] = stat.mean
            out[f"{name}.min"] = stat.min if stat.min is not None else 0
            out[f"{name}.max"] = stat.max if stat.max is not None else 0
        for name, hist in self._histograms.items():
            out[f"{name}.count"] = hist.count
            out[f"{name}.max"] = hist.max_value
            out[f"{name}.p50"] = hist.quantile(0.5)
            out[f"{name}.p99"] = hist.quantile(0.99)
        return out


def geomean(values: Iterable[float]) -> float:
    """Geometric mean; the paper's summary statistic for per-app slowdowns."""
    vals: List[float] = [v for v in values]
    if not vals:
        raise ValueError("geomean of empty sequence")
    if any(v <= 0 for v in vals):
        raise ValueError("geomean requires positive values")
    return math.exp(sum(math.log(v) for v in vals) / len(vals))
