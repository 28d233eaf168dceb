#!/usr/bin/env python
"""Regenerate the committed golden trace digests.

Run after an *intentional* timing-behaviour change:

    PYTHONPATH=src python tools/regen_goldens.py

and commit the updated ``tests/obs/golden_digests.json`` together with
the change that moved the digests, explaining why in the commit message.
Each scheme is run twice and must self-agree before anything is written;
a mismatch means nondeterminism crept into the model and there is
nothing sane to pin.  It records the trace digest of every scheme in
``trace_pinned_schemes()`` (the golden schemes and every other
``SCHEMES`` name), the golden scenario's, every ``SCHEMES`` name's
payload pin (the digest of its untraced lazy run's canonical result),
every shape pin's result and trace digests (``shape_names()``), and
every command-log pin (``COMMAND_LOG_PINS``).
"""

from __future__ import annotations

import json
import os
import sys

sys.path.insert(
    0, os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src")
)

from repro.core.schemes import SCHEMES  # noqa: E402  (path shim above)
from repro.obs.golden import (  # noqa: E402
    COMMAND_LOG_PINS,
    GOLDEN_BENCHMARK,
    GOLDEN_TRACE_LENGTH,
    command_log_digest,
    golden_digest,
    payload_digest,
    shape_digests,
    shape_names,
    trace_pinned_schemes,
)
from repro.scenarios import golden_scenario_digests  # noqa: E402

OUT_PATH = os.path.join(
    os.path.dirname(os.path.abspath(__file__)),
    "..", "tests", "obs", "golden_digests.json",
)


def main() -> int:
    digests = {}
    for scheme in trace_pinned_schemes():
        first = golden_digest(scheme)
        second = golden_digest(scheme)
        if first != second:
            print(f"FATAL: {scheme} is nondeterministic "
                  f"({first[:16]}... vs {second[:16]}...)", file=sys.stderr)
            return 1
        digests[scheme] = first
        print(f"{scheme:<12} {first}")
    payloads = {}
    for scheme in SCHEMES:
        first = payload_digest(scheme)
        if first != payload_digest(scheme):
            print(f"FATAL: {scheme}'s payload is nondeterministic",
                  file=sys.stderr)
            return 1
        payloads[scheme] = first
        print(f"payload.{scheme:<10} {first}")
    shapes = {}
    for name in shape_names():
        first = shape_digests(name)
        if first != shape_digests(name):
            print(f"FATAL: shape {name} is nondeterministic",
                  file=sys.stderr)
            return 1
        shapes[name] = first
        for kind, digest in sorted(first.items()):
            print(f"shape.{name}.{kind} {digest}")
    command_logs = {}
    for name in COMMAND_LOG_PINS:
        first = command_log_digest(name)
        if first != command_log_digest(name):
            print(f"FATAL: {name}'s command logs are nondeterministic",
                  file=sys.stderr)
            return 1
        command_logs[name] = first
        print(f"command_logs.{name} {first}")
    scenario = golden_scenario_digests()
    if scenario != golden_scenario_digests():
        print("FATAL: golden scenario is nondeterministic", file=sys.stderr)
        return 1
    for kind, digest in sorted(scenario.items()):
        print(f"scenario.{kind:<8} {digest}")
    doc = {
        "benchmark": GOLDEN_BENCHMARK,
        "command_logs": command_logs,
        "trace_length": GOLDEN_TRACE_LENGTH,
        "digests": digests,
        "payloads": payloads,
        "scenario": scenario,
        "shapes": shapes,
    }
    with open(os.path.normpath(OUT_PATH), "w") as fp:
        json.dump(doc, fp, indent=2, sort_keys=True)
        fp.write("\n")
    print(f"wrote {os.path.normpath(OUT_PATH)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
