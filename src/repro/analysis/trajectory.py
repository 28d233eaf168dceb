"""Append-only benchmark trajectories (``BENCH_*.json``) and their schema.

A trajectory is a JSON array of records, one per measurement, that
builds a history across commits: ``BENCH_chaos.json``
(:func:`repro.faults.campaign.bench_records`, appended by ``doram chaos
--bench-out``).  ``BENCH_sim.json``, ``BENCH_sweep.json`` and
``BENCH_explore.json`` are frozen history; ``--check`` still replays
them.  :func:`append` writes atomically (tmp + ``os.replace``), and a
corrupt or missing file restarts the trajectory instead of crashing.

:func:`validate` rejects malformed appends before they land: every
record needs the base keys, workload rows need their per-workload
schema (:data:`WORKLOAD_KEYS`), timestamps must be monotonic within the
trajectory, and a workload row whose identity (label + workload +
config/backend axes) already exists is refused -- re-measuring means
choosing a fresh label, never silently shadowing a committed sibling.
:func:`check` replays those rules over a whole file:

    python -m repro.analysis.trajectory --check BENCH_chaos.json

Nothing imported by ``repro.analysis`` imports this module, so the
``-m`` form runs it once.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from typing import Dict, List


def load(path: str) -> List[Dict[str, object]]:
    """The current trajectory; tolerant of a missing/corrupt file."""
    try:
        with open(path) as fp:
            records = json.load(fp)
        return records if isinstance(records, list) else []
    except (OSError, ValueError):
        return []


#: Keys every record must carry, whatever produced it.
BASE_KEYS = ("label", "wall_s")

#: Extra required keys per ``workload``.  A workload not listed here
#: only needs :data:`BASE_KEYS` -- the schema constrains the rows the
#: program appends, it does not enumerate every experiment anyone may
#: ever record.
WORKLOAD_KEYS = {
    # BENCH_chaos.json: one row per campaign cell; recovery_p99_ns is
    # -1.0 (never null) when no fault onset had a recovery witness.
    "chaos_point": ("config", "campaign", "availability", "goodput_rps",
                    "slo_goodput_rps", "recovery_p99_ns",
                    "invariants_ok"),
}

#: What makes two workload rows "the same measurement".  ``dram`` and
#: ``link`` name the DRAM and link backends of committed rows measured
#: before the simulator had one path; they stay in the identity so
#: those sibling rows remain distinct.
IDENTITY_KEYS = ("label", "workload", "config", "dram", "link")


def identity(record: Dict[str, object]) -> tuple:
    return tuple(record.get(key) for key in IDENTITY_KEYS)


def required_keys(record: Dict[str, object]) -> List[str]:
    """The full current schema for one record."""
    required = list(BASE_KEYS)
    workload = record.get("workload")
    if workload is not None:
        required += list(WORKLOAD_KEYS.get(workload, ()))
    return required


def _missing(record: Dict[str, object], required: List[str]) -> List[str]:
    return [key for key in required
            if key not in record or record[key] is None]


def validate(record: Dict[str, object],
             existing: List[Dict[str, object]]) -> None:
    """Reject a malformed or duplicate append (raises ``ValueError``).

    Only the *new* record is judged; historical rows predating a schema
    key stay valid.
    """
    workload = record.get("workload")
    missing = _missing(record, required_keys(record))
    if missing:
        raise ValueError(
            f"record {identity(record)!r} is missing required keys "
            f"{missing} (workload schema {workload!r})"
        )
    if existing:
        last = existing[-1].get("timestamp")
        now = record.get("timestamp")
        if last and now and str(now) < str(last):
            raise ValueError(
                f"timestamp {now!r} precedes the trajectory's last "
                f"record ({last!r}); appends must be monotonic"
            )
    if workload is not None:
        key = identity(record)
        if any(identity(row) == key for row in existing):
            raise ValueError(
                f"duplicate row for identity {key!r}: this "
                f"label+workload+config was already measured -- pick a "
                f"fresh label instead of shadowing the committed row"
            )


def append(record: Dict[str, object], path: str) -> Dict[str, object]:
    """Append one record to ``path`` (timestamp and derived rate filled
    in)."""
    record = dict(record)
    record.setdefault("timestamp", time.strftime("%Y-%m-%dT%H:%M:%SZ",
                                                 time.gmtime()))
    wall = record.get("wall_s")
    points = record.get("points")
    if wall and points and "points_per_s" not in record:
        record["points_per_s"] = round(points / wall, 3)
    records = load(path)
    validate(record, records)
    records.append(record)
    tmp = f"{path}.tmp-{os.getpid()}"
    with open(tmp, "w") as fp:
        json.dump(records, fp, indent=2, sort_keys=True)
        fp.write("\n")
    os.replace(tmp, path)
    return record


def check(path: str) -> List[str]:
    """Validate a whole trajectory file against the append rules.

    Replays the ordering and duplicate-identity rules over every
    record; returns the problems found (empty list = clean).  CI gates
    committed BENCH files with this so a hand-edited or merge-mangled
    trajectory fails loudly.

    Schema keys are *grandfathered* the same way appends were: rows
    appended before a workload key existed were valid then and stay
    valid now.  A replay
    cannot date individual rows, so the rule is monotone instead: once
    any row of a workload satisfies the full current schema, every
    later row of that workload must too -- and the *newest* row of
    each workload always must, so the row CI just appended is judged
    against the full schema even in a fresh file.
    """
    problems: List[str] = []
    try:
        with open(path) as fp:
            records = json.load(fp)
    except OSError as exc:
        return [f"{path}: unreadable ({exc})"]
    except ValueError as exc:
        return [f"{path}: not valid JSON ({exc})"]
    if not isinstance(records, list):
        return [f"{path}: top level must be a JSON array"]
    newest: Dict[object, int] = {
        record.get("workload"): index
        for index, record in enumerate(records)
        if isinstance(record, dict)
    }
    ratified: Dict[object, bool] = {}
    for index, record in enumerate(records):
        if not isinstance(record, dict):
            problems.append(f"{path}[{index}]: record is not an object")
            continue
        workload = record.get("workload")
        required = required_keys(record)
        missing = _missing(record, required)
        strict = ratified.get(workload) or index == newest[workload]
        if missing and strict:
            problems.append(
                f"{path}[{index}]: record {identity(record)!r} is "
                f"missing required keys {missing} "
                f"(workload schema {workload!r})"
            )
        if not missing:
            ratified[workload] = True
        prior = [row for row in records[:index] if isinstance(row, dict)]
        if prior:
            last = prior[-1].get("timestamp")
            now = record.get("timestamp")
            if last and now and str(now) < str(last):
                problems.append(
                    f"{path}[{index}]: timestamp {now!r} precedes the "
                    f"previous record ({last!r}); appends must be "
                    f"monotonic"
                )
        if workload is not None:
            key = identity(record)
            if any(identity(row) == key for row in prior):
                problems.append(
                    f"{path}[{index}]: duplicate row for identity "
                    f"{key!r}"
                )
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis.trajectory",
        description="validate a BENCH_*.json trajectory against the "
                    "append rules (exit 1 on problems)",
    )
    parser.add_argument("--check", required=True, metavar="PATH",
                        help="trajectory file to validate")
    args = parser.parse_args(argv)
    problems = check(args.check)
    for problem in problems:
        print(problem, file=sys.stderr)
    if not problems:
        print(f"{args.check}: OK")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
