"""Work-queue drains of one shared sweep -- the parallel sweep executor.

PR 2's :class:`~repro.analysis.sweep.ResultStore` already makes a sweep
*resumable*: every finished point is one content-addressed file, written
atomically.  This module makes the same store *drainable by N workers at
once* -- local processes, or hosts sharing a filesystem -- with no
coordinator process.  Every parallel sweep runs through it:
:func:`~repro.analysis.sweep.run_sweep` drains a private queue in a
temporary directory for ``workers > 1``, or the shared queue ``DIR`` for
``queue=DIR`` (:func:`drain_local`).

* A **queue directory** holds one ``manifest.json`` (the declared point
  list plus execution options, written once by whoever creates the
  sweep) next to ``leases/``, ``failed/`` and ``workers/`` directories
  and the result store.  Any worker that can read the manifest can join
  the drain (``doram sweep --join DIR --worker-id w3``).

* **Lease files** arbitrate point claims: a worker claims a point by
  ``O_CREAT | O_EXCL``-creating ``leases/<key>.lease`` -- the one
  filesystem primitive that is atomic on every POSIX filesystem and on
  NFS -- and stamps it with its owner id.  While simulating, a sidecar
  thread touches the lease (mtime heartbeat); a lease whose mtime is
  older than the TTL is *stale* -- its owner died or wedged -- and any
  worker may break it and re-dispatch the point (straggler
  re-dispatch).

* **Crash safety is free**: the simulator is deterministic and payloads
  are exact-integer state, so two workers racing the same point (the
  unavoidable window between "heartbeat missed" and "owner was merely
  slow") both produce byte-identical payloads, and the store's atomic
  ``put`` makes the double write harmless.  The equivalence suite
  extends PR 2's guarantee: an N-worker drain -- including one that was
  killed and resumed -- is byte-identical to a serial ``run_sweep``.

* **Failures are bounded and shared**: each failed attempt drops a
  uniquely-named marker under ``failed/``; once a point accumulates
  ``max_attempts`` markers (the PR 5 retry bound, one retry by
  default), a permanent failure record stops every worker from spinning
  on it, and the drain surfaces it exactly like
  :attr:`~repro.analysis.sweep.SweepResult.failed`.

Nothing here imports the simulator or knows a point kind: points
execute through :func:`~repro.analysis.sweep.execute_point`, and a
manifest holds each point's ``to_manifest()`` doc, read back by the
class its ``kind`` names.  Files are written by the store's durable
:func:`~repro.analysis.sweep.write_json_atomic`.
"""

from __future__ import annotations

import importlib
import json
import os
import socket
import threading
import time
import uuid
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.analysis.sweep import (
    ResultStore,
    SweepPoint,
    _failure_reason,
    canonical_json,
    dedup_points,
    execute_point,
    write_json_atomic,
)

#: Bump when the manifest layout changes shape (2: every point doc
#: carries its ``kind``).
MANIFEST_SCHEMA_VERSION = 2

MANIFEST_NAME = "manifest.json"
LEASE_DIR = "leases"
FAILED_DIR = "failed"
WORKER_DIR = "workers"

#: Default lease time-to-live: a worker that has not heartbeat for this
#: long is presumed dead and its point is re-dispatched.  Heartbeats run
#: every ``ttl / 4``, so transient scheduler hiccups do not trigger
#: spurious reclaims.
DEFAULT_LEASE_TTL_S = 30.0

#: Attempts per point across the whole drain (1 initial + 1 retry --
#: the PR 5 bounded-retry semantics, now enforced globally via the
#: shared attempt markers instead of per-process counters).
DEFAULT_MAX_ATTEMPTS = 2

#: Idle backoff while waiting on points leased by other workers.  An
#: idle pass stats each foreign lease about four times, and on a shared
#: queue every idle worker on every host polls, so the default is slow.
POLL_INTERVAL_S = 0.2

#: Idle backoff of a private drain, which only this host's workers
#: join: an idle pass touches at most ``workers - 1`` foreign leases,
#: and a worker with nothing left to claim sees the last point finish
#: up to one interval late, so the interval is short.
PRIVATE_POLL_INTERVAL_S = 0.02


class WorkQueueError(RuntimeError):
    """Queue-directory misuse: missing/yet-unwritten/foreign manifest."""


def _read_json(path: str) -> Optional[Dict[str, object]]:
    """A JSON file's content, or ``None`` if it is missing or torn."""
    try:
        with open(path) as fp:
            return json.load(fp)
    except (OSError, ValueError):
        return None


def _read_manifest(root: str) -> Dict[str, object]:
    """The manifest of the queue at ``root``; a missing or torn one is a
    :class:`WorkQueueError`."""
    path = os.path.join(root, MANIFEST_NAME)
    if not os.path.exists(path):
        raise WorkQueueError(
            f"no sweep manifest at {path}; create the queue first "
            f"(doram sweep --queue {root} ...)"
        )
    manifest = _read_json(path)
    if manifest is None:
        raise WorkQueueError(f"corrupt sweep manifest at {path}")
    return manifest


#: Point classes by manifest ``kind``, as lazy import targets: the
#: scenario and campaign layers import the sweep layer, not the reverse.
_POINT_KINDS: Dict[str, Tuple[str, str]] = {
    "chaos": ("repro.faults.campaign", "FaultPoint"),
    "run": ("repro.analysis.sweep", "RunPoint"),
    "scenario": ("repro.scenarios.sweep", "ScenarioPoint"),
}


def _point_from_manifest(doc: Dict[str, object]) -> SweepPoint:
    try:
        module_name, class_name = _POINT_KINDS[doc.get("kind")]
    except KeyError:
        raise WorkQueueError(
            f"manifest names unknown point kind {doc.get('kind')!r} "
            f"(registered: {', '.join(sorted(_POINT_KINDS))})"
        ) from None
    cls = getattr(importlib.import_module(module_name), class_name)
    return cls.from_manifest(doc)


def default_owner() -> str:
    """A default worker identity: host + pid, unique per process."""
    return f"{socket.gethostname()}-{os.getpid()}"


@dataclass
class QueueStats:
    """One consistent-enough snapshot of drain progress.

    Taken without locks, so counts can be momentarily off by the points
    that complete mid-walk; fine for the observability readout it
    feeds (``doram sweep --status``).
    """

    total: int
    done: int
    leased: int
    stale: int
    pending: int
    failed: int
    workers: List[Dict[str, object]] = field(default_factory=list)

    def describe(self) -> List[str]:
        lines = [
            f"points: {self.total} total, {self.done} done, "
            f"{self.leased} leased ({self.stale} stale), "
            f"{self.pending} pending, {self.failed} failed"
        ]
        for row in self.workers:
            rate = row.get("points_per_s")
            rate_s = f" ({rate:.2f} points/s)" if rate else ""
            lines.append(
                f"worker {row['owner']}: {row['completed']} done, "
                f"{row['failed']} failed, {row['reclaimed']} reclaimed"
                f"{rate_s}"
            )
        return lines


@dataclass
class DrainResult:
    """Per-worker accounting for one :meth:`WorkQueue.drain` call."""

    owner: str
    #: Points this worker simulated and persisted.
    completed: int = 0
    #: Points found already in the store (done by another worker or a
    #: previous run).
    skipped: int = 0
    #: Stale leases this worker broke.
    reclaimed: int = 0
    #: Second attempts this worker performed.
    retried: int = 0
    #: Permanent failures recorded, keyed to the final reason.
    failed: Dict[SweepPoint, str] = field(default_factory=dict)
    wall_s: float = 0.0


class WorkQueue:
    """One shared sweep: a manifest, a store, and lease arbitration."""

    def __init__(self, root: str, manifest: Dict[str, object]) -> None:
        self.root = root
        self.manifest = manifest
        store_root = manifest["store"]
        if not os.path.isabs(store_root):
            store_root = os.path.join(root, store_root)
        self.store = ResultStore(store_root)
        self.points: List[SweepPoint] = [
            _point_from_manifest(doc) for doc in manifest["points"]
        ]
        self.with_digest: bool = bool(manifest.get("with_digest", False))
        self.timeout_s: Optional[float] = manifest.get("timeout_s")
        self.max_attempts: int = int(
            manifest.get("max_attempts", DEFAULT_MAX_ATTEMPTS)
        )
        self.lease_ttl_s: float = float(
            manifest.get("lease_ttl_s", DEFAULT_LEASE_TTL_S)
        )
        self._keys: Dict[SweepPoint, str] = {
            point: point.key(self.with_digest) for point in self.points
        }
        for sub in (LEASE_DIR, FAILED_DIR, WORKER_DIR):
            os.makedirs(os.path.join(root, sub), exist_ok=True)

    # -- construction ---------------------------------------------------
    @classmethod
    def create(
        cls,
        root: str,
        points: Iterable[SweepPoint],
        store_root: str = "store",
        with_digest: bool = False,
        timeout_s: Optional[float] = None,
        max_attempts: int = DEFAULT_MAX_ATTEMPTS,
        lease_ttl_s: float = DEFAULT_LEASE_TTL_S,
    ) -> "WorkQueue":
        """Declare a new shared sweep under ``root``.

        Re-creating over an existing manifest is allowed only when the
        declaration is identical (idempotent restart of the submitting
        host); a different point list is refused rather than silently
        merged.
        """
        points = dedup_points(points)
        manifest = {
            "schema": MANIFEST_SCHEMA_VERSION,
            "store": store_root,
            "with_digest": bool(with_digest),
            "timeout_s": timeout_s,
            "max_attempts": int(max_attempts),
            "lease_ttl_s": float(lease_ttl_s),
            "points": [p.to_manifest() for p in points],
        }
        path = os.path.join(root, MANIFEST_NAME)
        if not os.path.exists(path):
            write_json_atomic(path, manifest)
        elif canonical_json(_read_manifest(root)) != canonical_json(manifest):
            raise WorkQueueError(
                f"{root} already declares a different sweep; use a "
                f"fresh queue directory or delete the old manifest"
            )
        return cls(root, manifest)

    @classmethod
    def join(cls, root: str) -> "WorkQueue":
        """Open an existing queue directory (worker side)."""
        manifest = _read_manifest(root)
        if manifest.get("schema") != MANIFEST_SCHEMA_VERSION:
            raise WorkQueueError(
                f"manifest schema {manifest.get('schema')!r} at "
                f"{os.path.join(root, MANIFEST_NAME)} does not match this "
                f"build ({MANIFEST_SCHEMA_VERSION})"
            )
        return cls(root, manifest)

    # -- lease primitives ------------------------------------------------
    def lease_path(self, key: str) -> str:
        return os.path.join(self.root, LEASE_DIR, f"{key}.lease")

    def claim(self, key: str, owner: str) -> bool:
        """Try to take the lease for ``key``; atomic, non-blocking.

        ``O_CREAT | O_EXCL`` guarantees exactly one creator even when
        two workers race the same point on a shared filesystem.
        """
        path = self.lease_path(key)
        try:
            fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_EXCL)
        except FileExistsError:
            return False
        try:
            with os.fdopen(fd, "w") as fp:
                fp.write(canonical_json({
                    "owner": owner,
                    "pid": os.getpid(),
                    "host": socket.gethostname(),
                    "acquired": time.time(),
                }))
        except BaseException:
            try:
                os.unlink(path)
            except OSError:
                pass
            raise
        return True

    def heartbeat(self, key: str) -> None:
        """Refresh the lease's liveness stamp (mtime)."""
        try:
            os.utime(self.lease_path(key))
        except OSError:
            pass

    def release(self, key: str) -> None:
        try:
            os.unlink(self.lease_path(key))
        except OSError:
            pass

    def lease_age_s(self, key: str) -> Optional[float]:
        """Seconds since the lease's last heartbeat; ``None`` if free."""
        try:
            return max(0.0, time.time() - os.path.getmtime(
                self.lease_path(key)
            ))
        except OSError:
            return None

    def break_if_stale(self, key: str) -> bool:
        """Remove a lease whose owner stopped heartbeating.

        Best-effort: losing the unlink race to another reclaimer (or to
        the owner releasing normally) is fine -- the subsequent
        :meth:`claim` is the only arbiter of ownership.
        """
        age = self.lease_age_s(key)
        if age is None or age <= self.lease_ttl_s:
            return False
        try:
            os.unlink(self.lease_path(key))
        except OSError:
            return False
        return True

    # -- failure bookkeeping ---------------------------------------------
    def _failed_marker(self, key: str) -> str:
        return os.path.join(self.root, FAILED_DIR, f"{key}.json")

    def record_attempt(self, key: str, owner: str, reason: str) -> int:
        """Drop a uniquely-named attempt marker; returns the new count.

        Unique names (owner + uuid) make the count race-free without
        read-modify-write locking: concurrent failures each land their
        own marker.
        """
        name = f"{key}.attempt-{owner}-{uuid.uuid4().hex[:8]}"
        write_json_atomic(
            os.path.join(self.root, FAILED_DIR, name),
            {"owner": owner, "reason": reason, "time": time.time()},
        )
        return self.attempt_count(key)

    def attempt_count(self, key: str) -> int:
        prefix = f"{key}.attempt-"
        try:
            names = os.listdir(os.path.join(self.root, FAILED_DIR))
        except OSError:
            return 0
        return sum(1 for name in names if name.startswith(prefix))

    def mark_failed(self, key: str, owner: str, reason: str) -> None:
        write_json_atomic(self._failed_marker(key), {
            "owner": owner,
            "reason": reason,
            "attempts": self.attempt_count(key),
            "time": time.time(),
        })

    def failure(self, key: str) -> Optional[Dict[str, object]]:
        return _read_json(self._failed_marker(key))

    # -- worker status ----------------------------------------------------
    def _worker_status_path(self, owner: str) -> str:
        return os.path.join(self.root, WORKER_DIR, f"{owner}.json")

    def write_worker_status(self, owner: str, result: DrainResult,
                            started: float) -> None:
        elapsed = max(time.time() - started, 1e-9)
        write_json_atomic(self._worker_status_path(owner), {
            "owner": owner,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "completed": result.completed,
            "skipped": result.skipped,
            "reclaimed": result.reclaimed,
            "retried": result.retried,
            "failed": len(result.failed),
            "elapsed_s": elapsed,
            "points_per_s": result.completed / elapsed,
            "updated": time.time(),
        })

    def worker_status(self, owner: str) -> Optional[Dict[str, object]]:
        """The status ``owner`` last published, or ``None``."""
        return _read_json(self._worker_status_path(owner))

    # -- observability -----------------------------------------------------
    def stats(self) -> QueueStats:
        """Drain progress: done / leased / pending / failed counts plus
        per-worker throughput (the ``--status`` readout)."""
        done = leased = stale = failed = 0
        for point in self.points:
            key = self._keys[point]
            if key in self.store:
                done += 1
                continue
            if self.failure(key) is not None:
                failed += 1
                continue
            age = self.lease_age_s(key)
            if age is not None:
                leased += 1
                if age > self.lease_ttl_s:
                    stale += 1
        workers: List[Dict[str, object]] = []
        worker_dir = os.path.join(self.root, WORKER_DIR)
        try:
            names = sorted(os.listdir(worker_dir))
        except OSError:
            names = []
        for name in names:
            if name.endswith(".json"):
                status = _read_json(os.path.join(worker_dir, name))
                if status is not None:
                    workers.append(status)
        total = len(self.points)
        return QueueStats(
            total=total,
            done=done,
            leased=leased,
            stale=stale,
            pending=total - done - leased - failed,
            failed=failed,
            workers=workers,
        )

    # -- the drain loop ----------------------------------------------------
    def drain(
        self,
        owner: Optional[str] = None,
        progress: Optional[Callable[[str], None]] = None,
        poll_interval_s: float = POLL_INTERVAL_S,
    ) -> DrainResult:
        """Run points until every manifest point is done or failed.

        Any number of workers may drain concurrently; each pass claims
        what it can, and between passes stale leases are broken so a
        killed worker's points re-dispatch.  Returns this worker's
        accounting (the queue's global state lives in the store and the
        failure markers).
        """
        owner = owner or default_owner()
        started = time.time()
        result = DrainResult(owner=owner)
        seen_done: set = set()
        while True:
            outstanding = 0
            progressed = False
            for point in self.points:
                key = self._keys[point]
                if key in seen_done:
                    continue
                if key in self.store:
                    seen_done.add(key)
                    result.skipped += 1
                    continue
                if self.failure(key) is not None:
                    seen_done.add(key)
                    continue
                if not self.claim(key, owner):
                    if self.break_if_stale(key):
                        result.reclaimed += 1
                        if progress:
                            progress(f"reclaimed stale lease: "
                                     f"{point.label}")
                        if not self.claim(key, owner):
                            outstanding += 1
                            continue
                    else:
                        outstanding += 1
                        continue
                # Lease held from here on.
                try:
                    if key in self.store:
                        # Done between our store check and the claim.
                        seen_done.add(key)
                        result.skipped += 1
                        continue
                    if self._run_leased_point(
                        point, key, owner, result, progress
                    ):
                        progressed = True
                    seen_done.add(key)
                finally:
                    self.release(key)
                self.write_worker_status(owner, result, started)
            if not outstanding:
                break
            if not progressed:
                # Everything left is leased by someone else: wait for
                # them to finish or for their leases to go stale.
                time.sleep(poll_interval_s)
        result.wall_s = time.time() - started
        self.write_worker_status(owner, result, started)
        return result

    def _run_leased_point(
        self,
        point: SweepPoint,
        key: str,
        owner: str,
        result: DrainResult,
        progress: Optional[Callable[[str], None]],
    ) -> bool:
        """Execute one claimed point (with heartbeat + bounded retry).

        Returns True when the point produced a payload; False when it
        was recorded as permanently failed.
        """
        stop = threading.Event()
        interval = max(self.lease_ttl_s / 4.0, 0.05)

        def _beat() -> None:
            while not stop.wait(interval):
                self.heartbeat(key)

        beater = threading.Thread(
            target=_beat, name=f"lease-{key[:8]}", daemon=True
        )
        beater.start()
        try:
            while True:
                try:
                    payload = execute_point(
                        point, self.with_digest, self.timeout_s
                    )
                except Exception as exc:  # noqa: BLE001 - bounded retry
                    reason = _failure_reason(exc)
                    attempts = self.record_attempt(key, owner, reason)
                    if attempts >= self.max_attempts:
                        self.mark_failed(key, owner, reason)
                        result.failed[point] = reason
                        if progress:
                            progress(f"failed {point.label}: {reason}")
                        return False
                    result.retried += 1
                    if progress:
                        progress(f"retry {point.label}: {reason}")
                    continue
                self.store.put(key, payload)
                result.completed += 1
                if progress:
                    progress(f"done {point.label}")
                return True
        finally:
            stop.set()
            beater.join(1.0)

    # -- collection --------------------------------------------------------
    def collect(
        self,
    ) -> Tuple[Dict[SweepPoint, Dict[str, object]], Dict[SweepPoint, str]]:
        """Payloads and permanent failures of the manifest's points,
        read back from the store and failure markers.

        Points still pending or leased appear in neither mapping.
        """
        payloads: Dict[SweepPoint, Dict[str, object]] = {}
        failed: Dict[SweepPoint, str] = {}
        for point in self.points:
            key = self._keys[point]
            payload = self.store.get(key)
            if payload is not None:
                payloads[point] = payload
                continue
            marker = self.failure(key)
            if marker is not None:
                failed[point] = str(marker.get("reason", "unknown"))
        return payloads, failed


# ---------------------------------------------------------------------------
# Local drains
# ---------------------------------------------------------------------------


def _drain_entry(root: str, owner: str, progress,
                 poll_interval_s: float) -> None:
    """Drain-worker process entry point."""
    WorkQueue.join(root).drain(owner=owner, progress=progress,
                               poll_interval_s=poll_interval_s)


def drain_local(
    queue: WorkQueue,
    workers: int = 1,
    progress: Optional[Callable[[str], None]] = None,
    poll_interval_s: float = POLL_INTERVAL_S,
) -> Tuple[Dict[SweepPoint, Dict[str, object]], Dict[SweepPoint, str],
           int]:
    """Drain ``queue`` with ``workers`` local workers, then collect it.

    This process drains in-process beside ``workers - 1`` forked child
    processes, and every worker reports its own ``done``/``retry``/
    ``failed`` lines through ``progress``.  Workers on other hosts may
    drain the same queue meanwhile.  The in-process drain returns only
    when every point is stored or permanently failed -- a dead child's
    point is reclaimed once its lease goes stale -- so no heal pass is
    needed.  Returns :meth:`WorkQueue.collect` plus the retries the
    local workers performed (children report theirs through their
    status files).
    """
    owner = default_owner()
    children = [f"{owner}-w{index}" for index in range(1, workers)]
    procs = []
    try:
        if children:
            import multiprocessing

            # Forked children inherit the loaded simulator and
            # ``progress`` without pickling either.
            context = multiprocessing.get_context("fork")
            for child in children:
                proc = context.Process(
                    target=_drain_entry,
                    args=(queue.root, child, progress, poll_interval_s),
                )
                proc.start()
                procs.append(proc)
        retried = queue.drain(
            owner=owner, progress=progress, poll_interval_s=poll_interval_s
        ).retried
        for proc in procs:
            proc.join()
    finally:
        for proc in procs:
            if proc.is_alive():
                proc.terminate()
                proc.join()
    for child in children:
        status = queue.worker_status(child) or {}
        retried += int(status.get("retried", 0))
    payloads, failed = queue.collect()
    return payloads, failed, retried
