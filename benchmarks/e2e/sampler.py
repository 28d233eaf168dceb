"""SIGPROF stack sampler: host CPU time per ``repro.*`` layer.

Every :data:`INTERVAL_S` seconds of process CPU time (``ITIMER_PROF``)
the kernel interrupts the process.  The handler walks the interrupted
stack from the innermost frame outwards and credits the sample to the
first frame whose module lives in one of the ``repro.<layer>`` packages.
Standard-library and builtin frames are skipped on the way, so their
time lands on the repro code that called them.  A sample that meets a
frame of ``speed.py`` first falls in a host-speed calibration slice and
belongs to ``calibration``, the benchmark's measuring cost, which is
reported with no layer.  One that meets another frame of the
benchmark's own files first, or no layer frame at all, belongs to
``harness`` (the benchmark's code and anything the interpreter does
outside the simulator).

There is no per-call hook: the cost is one stack walk per sample, which
keeps the proportions that cProfile's per-call accounting distorts.
Untraced benchmark passes never import this module, so they pay nothing.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Dict, Optional

#: The ``repro`` packages credited as layers, in import-dependency order.
LAYERS = (
    "sim", "cpu", "dram", "bob", "core", "oram", "crypto", "trace",
    "scenarios", "faults", "analysis", "obs", "securemem",
)
HARNESS = "harness"
CALIBRATION = "calibration"

#: About 250 samples per CPU second.
INTERVAL_S = 0.004

_HERE = os.path.dirname(os.path.abspath(__file__)) + os.sep
_SPEED = _HERE + "speed.py"


def layer_of_module(name: str) -> Optional[str]:
    """The layer a module belongs to, or ``None`` outside every layer."""
    parts = name.split(".")
    if len(parts) >= 2 and parts[0] == "repro" and parts[1] in LAYERS:
        return parts[1]
    return None


class Sampler:
    """Counts SIGPROF samples per layer between :meth:`start` and
    :meth:`stop`; :meth:`self_seconds` turns them into CPU seconds."""

    def __init__(self) -> None:
        self.counts: Dict[str, int] = dict.fromkeys(
            LAYERS + (HARNESS, CALIBRATION), 0)
        #: CPU seconds covered by the sampled span(s).
        self.cpu_s = 0.0
        self._layer_of_file: Dict[str, Optional[str]] = {}
        self._cpu_start: Optional[float] = None
        self._previous_handler = None

    def _credit(self, frame) -> str:
        # Keyed by file, not by code object: equal code objects (the same
        # function body in two modules) compare and hash equal.
        cache = self._layer_of_file
        while frame is not None:
            filename = frame.f_code.co_filename
            try:
                layer = cache[filename]
            except KeyError:
                if filename == _SPEED:
                    layer = CALIBRATION
                elif filename.startswith(_HERE):
                    layer = HARNESS
                else:
                    layer = layer_of_module(frame.f_globals.get("__name__", ""))
                cache[filename] = layer
            if layer is not None:
                return layer
            frame = frame.f_back
        return HARNESS

    def _on_signal(self, _signum, frame) -> None:
        self.counts[self._credit(frame)] += 1

    def start(self) -> None:
        if self._cpu_start is not None:
            raise RuntimeError("sampler already running")
        self._previous_handler = signal.signal(signal.SIGPROF, self._on_signal)
        self._cpu_start = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)

    def stop(self) -> None:
        if self._cpu_start is None:
            raise RuntimeError("sampler not running")
        signal.setitimer(signal.ITIMER_PROF, 0.0, 0.0)
        self.cpu_s += time.process_time() - self._cpu_start
        self._cpu_start = None
        signal.signal(signal.SIGPROF, self._previous_handler)

    @property
    def samples(self) -> int:
        return sum(self.counts.values())

    def self_seconds(self) -> Dict[str, float]:
        """Each layer's share of the samples times the sampled CPU time.

        Scaling by measured CPU time rather than ``samples * interval``
        keeps the sum exact even when the kernel coalesces timer ticks.
        """
        total = self.samples
        if not total:
            return dict.fromkeys(self.counts, 0.0)
        return {layer: self.cpu_s * n / total
                for layer, n in self.counts.items()}
