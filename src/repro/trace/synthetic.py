"""Synthetic memory-trace generator.

Generates a stream of :class:`~repro.trace.trace_format.TraceRecord`
modelling the access behaviour knobs that matter to a DRAM system:

* **MPKI** -- misses per kilo-instruction sets the mean instruction gap
  between accesses (geometric distribution, optionally with a bursty
  mixture component that produces clustered misses);
* **spatial locality** -- with probability ``stream_prob`` the next access
  continues the current sequential stream (row-buffer friendly), otherwise
  it jumps to a random line in the working set (bank/row conflict heavy);
* **read/write mix** -- writes are drawn i.i.d. with ``write_fraction``;
* **working set** -- the number of distinct lines the random jumps cover.

Everything is driven by ``random.Random(seed)`` so traces are perfectly
reproducible and distinct across co-running application copies (seed is
offset by the copy index).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from math import log
from typing import Iterator

from repro.trace.trace_format import TraceRecord


@dataclass(frozen=True)
class TraceParams:
    """Tunable personality of one synthetic workload."""

    mpki: float
    write_fraction: float = 0.30
    stream_prob: float = 0.6
    burst_prob: float = 0.15
    burst_gap_mean: float = 4.0
    working_set_lines: int = 1 << 18  # 16 MB of 64 B lines
    seed: int = 1

    def __post_init__(self) -> None:
        if self.mpki <= 0:
            raise ValueError("mpki must be positive")
        for name in ("write_fraction", "stream_prob", "burst_prob"):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]")
        if self.working_set_lines < 2:
            raise ValueError("working set must hold at least 2 lines")

    @property
    def mean_gap(self) -> float:
        """Mean non-memory instructions between accesses for this MPKI."""
        return 1000.0 / self.mpki


class SyntheticTrace:
    """A reproducible, restartable synthetic trace."""

    def __init__(self, params: TraceParams, length: int) -> None:
        if length < 1:
            raise ValueError("length must be positive")
        self.params = params
        self.length = length

    def __iter__(self) -> Iterator[TraceRecord]:
        return self.generate()

    def generate(self) -> Iterator[TraceRecord]:
        """Yield ``length`` records; each call restarts from the seed."""
        p = self.params
        rng = random.Random(p.seed)
        # The non-burst component's mean is chosen so the mixture hits the
        # target mean gap exactly.
        base_mean = (p.mean_gap - p.burst_prob * p.burst_gap_mean) / max(
            1.0 - p.burst_prob, 1e-9
        )
        base_mean = max(base_mean, 1.0)
        position = rng.randrange(p.working_set_lines)

        # Gaps are geometric on {0, 1, ...} with mean m, by inverse-CDF
        # sampling: int(log(u) / log(1 - 1/(m+1))) for uniform u, with
        # the denominators precomputed.  base_mean is always > 0; a burst
        # mean of 0 gives gap 0 without consuming a draw.
        uniform = rng.random
        randrange = rng.randrange
        burst_prob = p.burst_prob
        stream_prob = p.stream_prob
        write_fraction = p.write_fraction
        working_set = p.working_set_lines
        base_denom = log(1.0 - 1.0 / (base_mean + 1.0))
        burst_mean = p.burst_gap_mean
        burst_denom = (
            log(1.0 - 1.0 / (burst_mean + 1.0)) if burst_mean > 0 else None
        )

        for _ in range(self.length):
            if uniform() < burst_prob:
                if burst_denom is None:
                    gap = 0
                else:
                    u = uniform()
                    gap = int(log(u if u > 1e-300 else 1e-300) / burst_denom)
            else:
                u = uniform()
                gap = int(log(u if u > 1e-300 else 1e-300) / base_denom)
            if uniform() < stream_prob:
                position = (position + 1) % working_set
            else:
                position = randrange(working_set)
            is_write = uniform() < write_fraction
            yield TraceRecord(gap=gap, is_write=is_write, line_addr=position)


def with_copy_seed(params: TraceParams, copy_index: int) -> TraceParams:
    """Clone ``params`` for the ``copy_index``-th co-running instance.

    The paper runs eight copies of the same program (multi-programmed);
    each copy must follow a distinct random path or their accesses would
    march in lockstep and alias queueing artifacts.
    """
    return TraceParams(
        mpki=params.mpki,
        write_fraction=params.write_fraction,
        stream_prob=params.stream_prob,
        burst_prob=params.burst_prob,
        burst_gap_mean=params.burst_gap_mean,
        working_set_lines=params.working_set_lines,
        seed=params.seed + 7919 * (copy_index + 1),
    )
