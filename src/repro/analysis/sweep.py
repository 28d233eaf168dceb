"""Resumable sweeps with an on-disk result store.

Every paper exhibit, SLO sweep and chaos campaign is a set of
*independent* simulations, so a sweep parallelizes trivially.  This
module provides the three pieces every sweep builds on:

* :class:`SweepPoint` -- the point protocol of :class:`RunPoint` (one
  ``run_scheme`` call per ``(scheme, benchmark, trace-segment, config
  override)``), ``ScenarioPoint`` and ``FaultPoint``: one payload
  builder, :meth:`SweepPoint.execute`, and one key, :func:`content_key`
  of what a payload depends on -- for a run point the *resolved*
  ``SystemConfig``, so scheme aliases (``baseline`` / ``1s7ns``) or
  reordered overrides that build the same machine share one entry.

* :class:`ResultStore` -- a directory of one canonical-JSON file per
  point, written by :func:`write_json_atomic`, so an interrupted sweep
  leaves only complete entries and the next invocation resumes where it
  died instead of re-simulating.

* :func:`run_sweep` -- the one sweep entry point.  ``workers=1`` runs
  the store misses serially in-process (the reference execution);
  ``workers > 1`` or ``queue=DIR`` drains them through a
  :class:`~repro.analysis.workqueue.WorkQueue`.  Every path returns the
  *serialized* payload; the simulator is deterministic given a config,
  and payloads are exact-integer state, so a parallel sweep is
  bit-identical to a serial one -- enforced by
  ``tests/analysis/test_sweep.py``.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from repro.core.schemes import make_config, run_scheme
from repro.core.system import SimResult

#: Bump when the result payload or the config schema changes shape;
#: old store entries then miss and re-simulate instead of deserializing
#: garbage.
STORE_SCHEMA_VERSION = 1

#: Default on-disk store location.
DEFAULT_STORE_DIR = ".doram-sweep"


def canonical_json(payload: object) -> str:
    """Canonical encoding: sorted keys, no whitespace -- the byte form
    both the store files and the content-address hash are built from."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def content_key(body: Dict[str, object], with_digest: bool) -> str:
    """A point's content address: sha256 over ``body`` (everything its
    payload depends on), :data:`STORE_SCHEMA_VERSION` and the digest
    flag.  Every point kind's ``key`` is this function."""
    doc = dict(body, schema=STORE_SCHEMA_VERSION,
               with_digest=bool(with_digest))
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


def pairs_from_json(pairs) -> Tuple[Tuple[str, object], ...]:
    """Manifest ``[[field, value], ...]`` back to override pairs (a JSON
    list value back to the tuple it was)."""
    return tuple((k, tuple(v) if isinstance(v, list) else v)
                 for k, v in pairs)


# ---------------------------------------------------------------------------
# Sweep points
# ---------------------------------------------------------------------------


class SweepPoint:
    """The point protocol: one independent simulation in a sweep.

    A point kind is a frozen dataclass subclass that sets :attr:`kind`
    and supplies ``label``, ``key(with_digest)`` (through
    :func:`content_key`), ``run(tracer)`` (its payload fields,
    ``"result"`` among them) and ``to_manifest()`` /
    ``from_manifest(doc)``, whose doc carries ``kind``.
    """

    #: The manifest tag naming this point kind.
    kind = ""

    def execute(self, with_digest: bool = False) -> Dict[str, object]:
        """The store payload: the schema, the manifest doc as
        ``"point"``, the fields :meth:`run` returns and, ``with_digest``,
        the sha256 digest of the run's trace."""
        tracer = None
        if with_digest:
            from repro.obs.tracer import Tracer

            tracer = Tracer()
        payload: Dict[str, object] = {
            "schema": STORE_SCHEMA_VERSION,
            "point": self.to_manifest(),
        }
        payload.update(self.run(tracer))
        if tracer is not None:
            from repro.obs.export import trace_digest

            payload["trace_digest"] = trace_digest(tracer.events)
        return payload


@dataclass(frozen=True)
class RunPoint(SweepPoint):
    """One ``run_scheme`` simulation (kind ``run``).

    ``overrides`` is a sorted tuple of ``(field, value)`` pairs applied
    to :func:`~repro.core.schemes.make_config`; values must be
    picklable and JSON-safe (the usual scalars).
    """

    kind = "run"

    scheme: str
    benchmark: str
    trace_length: int
    segment: int = 0
    overrides: Tuple[Tuple[str, object], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self, "overrides", tuple(sorted(tuple(self.overrides)))
        )

    @property
    def label(self) -> str:
        extra = "".join(
            f" {k}={v}" for k, v in self.overrides
        )
        return (f"{self.scheme}/{self.benchmark}"
                f"@{self.trace_length}.{self.segment}{extra}")

    def resolved_config(self):
        """The full :class:`SystemConfig` this point simulates."""
        return make_config(
            self.scheme, self.benchmark, self.trace_length,
            segment=self.segment, **dict(self.overrides),
        )

    def key(self, with_digest: bool = False) -> str:
        """Content address over the resolved config."""
        return content_key({
            "config": self.resolved_config().to_json_dict(),
            "trace_length": self.trace_length,
        }, with_digest)

    def run(self, tracer) -> Dict[str, object]:
        result = run_scheme(
            self.scheme, self.benchmark, self.trace_length,
            segment=self.segment, tracer=tracer, **dict(self.overrides),
        )
        return {"result": result.to_json_dict()}

    def to_manifest(self) -> Dict[str, object]:
        return {
            "kind": self.kind,
            "scheme": self.scheme,
            "benchmark": self.benchmark,
            "trace_length": self.trace_length,
            "segment": self.segment,
            "overrides": [list(kv) for kv in self.overrides],
        }

    @classmethod
    def from_manifest(cls, doc: Dict[str, object]) -> "RunPoint":
        return cls(
            scheme=doc["scheme"],
            benchmark=doc["benchmark"],
            trace_length=doc["trace_length"],
            segment=doc.get("segment", 0),
            overrides=pairs_from_json(doc.get("overrides", ())),
        )


def dedup_points(points: Iterable[SweepPoint]) -> List[SweepPoint]:
    """Order-preserving dedup (figures overlap heavily)."""
    seen = set()
    out: List[SweepPoint] = []
    for point in points:
        if point not in seen:
            seen.add(point)
            out.append(point)
    return out


# ---------------------------------------------------------------------------
# On-disk store
# ---------------------------------------------------------------------------


def write_json_atomic(path: str, payload: object) -> None:
    """Durably replace ``path`` with ``payload``'s canonical JSON.

    The tmp name is unique per call (``mkstemp``), not per
    ``(pid, key)``: two threads of one process writing the same path
    used to race on a shared tmp path, and one could rename the other's
    half-written file into place.  The data is fsynced before the
    rename and the directory entry after it, so a crash at any point
    leaves either the old file or the complete new one -- never a torn
    file.
    """
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix=".tmp-", dir=directory)
    try:
        with os.fdopen(fd, "w") as fp:
            fp.write(canonical_json(payload))
            fp.flush()
            os.fsync(fp.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
    except OSError:
        return
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


class ResultStore:
    """Content-addressed directory of point payloads.

    Layout: ``<root>/<key[:2]>/<key>.json`` -- one canonical-JSON file
    per point, fanned out over 256 subdirectories so large sweeps do not
    create giant flat directories.  Writes are atomic
    (:func:`write_json_atomic`), so readers never observe a torn file
    and a killed sweep leaves only complete entries behind.
    """

    def __init__(self, root: Optional[str] = None) -> None:
        self.root = root if root is not None else DEFAULT_STORE_DIR
        os.makedirs(self.root, exist_ok=True)

    def path_for(self, key: str) -> str:
        return os.path.join(self.root, key[:2], f"{key}.json")

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self.path_for(key))

    def get(self, key: str) -> Optional[Dict[str, object]]:
        """The stored payload, or ``None`` on a miss or a corrupt file
        (corrupt entries count as misses and get re-simulated)."""
        path = self.path_for(key)
        try:
            with open(path) as fp:
                return json.load(fp)
        except (OSError, ValueError):
            return None

    def lookup(self, key: str) -> Optional[Dict[str, object]]:
        """A store hit (``run_sweep``'s and ``doram chaos report``'s):
        the payload under ``key`` if it has this build's schema."""
        cached = self.get(key)
        if cached is None or cached.get("schema") != STORE_SCHEMA_VERSION:
            return None
        return cached

    def put(self, key: str, payload: Dict[str, object]) -> None:
        """Durably persist one entry (:func:`write_json_atomic`)."""
        write_json_atomic(self.path_for(key), payload)

    def delete(self, key: str) -> bool:
        try:
            os.remove(self.path_for(key))
            return True
        except OSError:
            return False

    def keys(self) -> List[str]:
        out: List[str] = []
        for sub in sorted(os.listdir(self.root)):
            subdir = os.path.join(self.root, sub)
            if not os.path.isdir(subdir):
                continue
            for name in sorted(os.listdir(subdir)):
                if name.endswith(".json"):
                    out.append(name[: -len(".json")])
        return out

    def __len__(self) -> int:
        return len(self.keys())


# ---------------------------------------------------------------------------
# Execution
# ---------------------------------------------------------------------------


class PointTimeout(RuntimeError):
    """A run point exceeded its wall-clock budget inside a worker."""


def _run_with_deadline_main_thread(
    point, with_digest: bool, timeout_s: float
) -> Dict[str, object]:
    """Deadline enforcement when we own the main thread.

    A daemon :class:`threading.Timer` interrupts the main thread at the
    deadline -- ``pthread_kill(SIGINT)`` where available, so even a
    blocking syscall wakes; ``_thread.interrupt_main`` otherwise, which
    lands between two bytecodes of the (pure-Python) simulation.  The
    work actually *stops*, exactly like the old ``SIGALRM`` path, but
    without the main-thread-only ``signal.signal`` restriction and
    without needing ``SIGALRM`` to exist (Windows).  A genuine Ctrl-C
    is distinguished by the ``fired`` flag: if the interrupt arrives
    before the watchdog fired, it is re-raised untouched.
    """
    import _thread
    import signal

    fired = threading.Event()
    main_ident = threading.main_thread().ident

    def _expire() -> None:
        fired.set()
        try:
            signal.pthread_kill(main_ident, signal.SIGINT)
        except (AttributeError, ValueError, ProcessLookupError,
                RuntimeError, OSError):
            _thread.interrupt_main()

    timer = threading.Timer(timeout_s, _expire)
    timer.daemon = True
    timer.start()
    try:
        result = point.execute(with_digest)
    except KeyboardInterrupt:
        if fired.is_set():
            raise PointTimeout(
                f"{point.label}: exceeded the {timeout_s:g}s point budget"
            ) from None
        raise
    finally:
        timer.cancel()
        timer.join(1.0)
    if fired.is_set():
        # The point finished, but the watchdog fired in the window
        # between completion and cancel; its interrupt may still be
        # pending delivery.  Absorb it here so it cannot detonate in
        # the caller.  (The same completion-vs-expiry race existed in
        # the SIGALRM implementation.)
        try:
            time.sleep(0.05)
        except KeyboardInterrupt:
            pass
    return result


def _run_with_deadline_worker_thread(
    point, with_digest: bool, timeout_s: float
) -> Dict[str, object]:
    """Deadline enforcement off the main thread.

    ``interrupt_main`` and signals cannot reach a non-main thread, so
    the point runs in a fresh daemon thread and the caller waits with a
    deadline (a thread join with a timeout).  On expiry the runaway
    thread is *abandoned*, not killed -- Python offers no safe
    cross-thread interrupt -- so the caller (a threaded embedder) gets
    control back immediately while the zombie finishes or dies with the
    process.  Fresh thread per budgeted call: an abandoned worker must
    never wedge a shared slot.
    """
    box: Dict[str, object] = {}

    def _call() -> None:
        try:
            box["result"] = point.execute(with_digest)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            box["error"] = exc

    thread = threading.Thread(
        target=_call, name=f"point-{point.label}", daemon=True
    )
    thread.start()
    thread.join(timeout_s)
    if thread.is_alive():
        raise PointTimeout(
            f"{point.label}: exceeded the {timeout_s:g}s point budget"
        )
    error = box.get("error")
    if error is not None:
        raise error
    return box["result"]  # type: ignore[return-value]


def execute_point(
    point: SweepPoint,
    with_digest: bool = False,
    timeout_s: Optional[float] = None,
) -> Dict[str, object]:
    """Simulate one point and return its serialized payload.

    The serial loop and every work-queue drain run points through this
    one call, which runs :meth:`SweepPoint.execute`.  ``with_digest``
    additionally runs the tracer and embeds the sha256 trace digest, so
    equivalence tests can compare event-level behaviour across worker
    layouts, not just aggregates.

    ``timeout_s`` arms a wall-clock budget and raises
    :class:`PointTimeout` when it expires.  The budget is enforced from
    *inside* this call, and it works on any thread: on the main thread
    (the serial loop, every drain worker) a watchdog timer interrupts
    the simulation between bytecodes; off the main thread (threaded
    embedders) the point runs in a sidecar thread joined with a
    deadline.
    """
    if timeout_s is None:
        return point.execute(with_digest)
    if threading.current_thread() is threading.main_thread():
        return _run_with_deadline_main_thread(point, with_digest, timeout_s)
    return _run_with_deadline_worker_thread(point, with_digest, timeout_s)


@dataclass
class SweepResult:
    """Payloads plus execution accounting for one sweep invocation."""

    payloads: Dict[SweepPoint, Dict[str, object]]
    #: Points simulated in this invocation (store misses).
    simulated: int = 0
    #: Points served from the store without running.
    store_hits: int = 0
    workers: int = 1
    wall_s: float = 0.0
    store_root: Optional[str] = None
    #: Points that failed even after the bounded retry, keyed to the
    #: final failure reason (``"ExcType: message"``).
    failed: Dict[SweepPoint, str] = field(default_factory=dict)
    #: Second attempts performed (at most one per point).
    retried: int = 0

    @property
    def total(self) -> int:
        return len(self.payloads)

    @property
    def points_per_s(self) -> float:
        return self.total / self.wall_s if self.wall_s > 0 else 0.0

    def results(self) -> Dict[SweepPoint, SimResult]:
        """Deserialize every :class:`RunPoint` payload back to a
        :class:`SimResult`."""
        return {
            point: SimResult.from_json_dict(payload["result"])
            for point, payload in self.payloads.items()
        }


class SweepFailure(RuntimeError):
    """One or more sweep points failed even after the bounded retry.

    Carries the full :class:`SweepResult` (``.sweep_result``) so callers
    can still report the accounting for the points that did complete.
    """

    def __init__(self, sweep_result: SweepResult) -> None:
        self.sweep_result = sweep_result
        lines = [
            f"{len(sweep_result.failed)} sweep point(s) failed "
            f"after retry:"
        ]
        for point, reason in sweep_result.failed.items():
            lines.append(f"  {point.label}: {reason}")
        super().__init__("\n".join(lines))


def _failure_reason(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {exc}"


def run_sweep(
    points: Iterable[SweepPoint],
    workers: int = 1,
    store: Optional[ResultStore] = None,
    resume: bool = True,
    with_digest: bool = False,
    progress: Optional[Callable[[str], None]] = None,
    timeout_s: Optional[float] = None,
    queue: Optional[str] = None,
) -> SweepResult:
    """Execute every point, resuming from the store.

    ``workers <= 1`` runs the store misses serially in-process: the
    reference execution the equivalence tests compare against.
    ``workers > 1`` drains them through a private work queue in a
    temporary directory (see :func:`~repro.analysis.workqueue.drain_local`),
    which is removed afterwards, also on error.  The drain writes each
    point into ``store`` as it finishes, so an interrupted sweep keeps
    its finished points, as the serial loop does.  With ``store=None``
    or ``resume=False`` it writes into its own store instead, and each
    payload is then recorded into ``store`` exactly as the serial loop
    does.

    ``queue=DIR`` declares every point in the shared work queue ``DIR``
    (re-declaring the same sweep is idempotent) and drains it with
    ``workers`` local workers -- in-process when ``workers <= 1`` --
    while workers on other hosts may join the same directory.  The
    drain writes into ``store``, or into ``DIR/store`` when there is
    none.  Joiners resume from that shared store, so ``resume=False``
    cannot be honoured there and raises :class:`ValueError`.

    ``resume=False`` ignores (but still refreshes) existing store
    entries.  ``timeout_s`` bounds each point's wall clock (see
    :func:`execute_point`).  On every path a point that times out or
    raises gets exactly one more attempt; if that also fails, the sweep
    *keeps going* and records the point in :attr:`SweepResult.failed`
    instead of hanging -- the caller decides whether a partial sweep is
    fatal.
    """
    if queue is not None and not resume:
        raise ValueError(
            "resume=False cannot be honoured with a shared queue: its "
            "workers resume from the shared store"
        )
    points = dedup_points(points)
    started = time.monotonic()
    work_queue = None
    if queue is not None:
        from repro.analysis.workqueue import WorkQueue

        work_queue = WorkQueue.create(
            queue, points,
            store_root=(os.path.abspath(store.root) if store is not None
                        else "store"),
            with_digest=with_digest, timeout_s=timeout_s,
        )
        if store is None:
            store = work_queue.store
    payloads: Dict[SweepPoint, Dict[str, object]] = {}
    failed: Dict[SweepPoint, str] = {}
    retried = 0
    keys = {point: point.key(with_digest) for point in points}

    todo: List[SweepPoint] = []
    hits = 0
    for point in points:
        cached = (store.lookup(keys[point])
                  if store is not None and resume else None)
        if cached is not None:
            payloads[point] = cached
            hits += 1
        else:
            todo.append(point)
    if progress and hits:
        progress(f"store: {hits}/{len(points)} points already simulated")

    def _record(point: SweepPoint, payload: Dict[str, object]) -> None:
        payloads[point] = payload
        if store is not None:
            store.put(keys[point], payload)

    if todo and (queue is not None or (workers > 1 and len(todo) > 1)):
        from repro.analysis.workqueue import (
            POLL_INTERVAL_S,
            PRIVATE_POLL_INTERVAL_S,
            WorkQueue,
            drain_local,
        )

        # The drain writes each point into ``store`` as it finishes, so
        # an interrupted sweep keeps its finished points.  It counts any
        # store file as done, so resume=False needs a store of its own.
        direct = store is not None and resume
        if direct:
            # Drop the misses' files (torn, or of another schema) so
            # their points re-run, as the serial loop would.
            for point in todo:
                if keys[point] in store and store.lookup(keys[point]) is None:
                    store.delete(keys[point])
        private_root = None
        try:
            if work_queue is None:
                private_root = tempfile.mkdtemp(prefix="doram-sweep-")
                work_queue = WorkQueue.create(
                    private_root, todo,
                    store_root=(os.path.abspath(store.root) if direct
                                else "store"),
                    with_digest=with_digest, timeout_s=timeout_s,
                )
            drained, failed, retried = drain_local(
                work_queue, min(workers, len(todo)), progress,
                POLL_INTERVAL_S if private_root is None
                else PRIVATE_POLL_INTERVAL_S,
            )
        finally:
            if private_root is not None:
                shutil.rmtree(private_root, ignore_errors=True)
        if direct:
            payloads.update(drained)
        else:
            for point, payload in drained.items():
                _record(point, payload)
    else:
        for i, point in enumerate(todo):
            if progress:
                progress(f"run {i + 1}/{len(todo)}: {point.label}")
            try:
                payload = execute_point(point, with_digest, timeout_s)
            except Exception as exc:  # noqa: BLE001 - retry once
                retried += 1
                if progress:
                    progress(f"retry {point.label}: {_failure_reason(exc)}")
                try:
                    payload = execute_point(point, with_digest, timeout_s)
                except Exception as exc2:  # noqa: BLE001
                    failed[point] = _failure_reason(exc2)
                    continue
            _record(point, payload)

    return SweepResult(
        payloads=payloads,
        simulated=len(todo) - len(failed),
        store_hits=hits,
        workers=workers,
        wall_s=time.monotonic() - started,
        store_root=store.root if store is not None else None,
        failed=failed,
        retried=retried,
    )
