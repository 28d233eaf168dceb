"""Work-queue drains: lease semantics, crash recovery, equivalence.

The contract (DESIGN.md "Distributed work-queue sweeps"):

* a point claim is an ``O_CREAT | O_EXCL`` lease create -- two workers
  racing one point claim it exactly once;
* a worker that dies mid-point stops heartbeating; after the TTL its
  lease is stale, any worker may break it, and the point re-runs to a
  byte-identical payload (deterministic simulator + content-addressed
  atomic store);
* a drain resumes over partial state: done points are skipped, live
  leases are honoured (waited on, not stolen), stale leases are
  re-dispatched;
* failures share the PR 5 bounded-retry budget *globally*: attempt
  markers are visible to every worker, so a point never runs more than
  ``max_attempts`` times across the whole drain;
* an N-worker drain -- including one that lost a worker to SIGKILL --
  produces a store byte-identical to a serial ``run_sweep``;
* ``run_sweep(queue=DIR)`` accounts a drain the way the serial loop
  does: store hits from the up-front check, simulated = misses minus
  failures, retries summed over the drain workers.
"""

import os
import signal
import threading
import time

import pytest

from repro.analysis import workqueue as wq_mod
from repro.analysis.sweep import ResultStore, RunPoint, run_sweep
from repro.analysis.workqueue import WorkQueue, WorkQueueError

LENGTH = 100


def _points(n=4):
    return [RunPoint("baseline", "li", LENGTH, segment=i) for i in range(n)]


def key_for(queue: WorkQueue, point: RunPoint) -> str:
    """The lease/marker key the queue files ``point`` under."""
    return queue._keys[point]


def _store_bytes(store: ResultStore):
    out = {}
    for key in store.keys():
        with open(store.path_for(key), "rb") as fp:
            out[key] = fp.read()
    return out


# ---------------------------------------------------------------------------
# Lease primitives
# ---------------------------------------------------------------------------


class TestLeases:
    def test_two_workers_race_one_claim(self, tmp_path):
        """Exactly one of many concurrent claimants wins the lease."""
        queue = WorkQueue.create(str(tmp_path / "q"), _points(1))
        key = key_for(queue, queue.points[0])
        barrier = threading.Barrier(8)
        wins = []

        def _contender(name):
            barrier.wait()
            if queue.claim(key, name):
                wins.append(name)

        threads = [
            threading.Thread(target=_contender, args=(f"w{i}",))
            for i in range(8)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(5.0)
        assert len(wins) == 1

    def test_fresh_lease_is_not_stale(self, tmp_path):
        queue = WorkQueue.create(str(tmp_path / "q"), _points(1),
                                 lease_ttl_s=30.0)
        key = key_for(queue, queue.points[0])
        assert queue.claim(key, "w0")
        assert not queue.break_if_stale(key)
        assert not queue.claim(key, "w1")

    def test_stale_lease_is_broken_and_reclaimable(self, tmp_path):
        queue = WorkQueue.create(str(tmp_path / "q"), _points(1),
                                 lease_ttl_s=5.0)
        key = key_for(queue, queue.points[0])
        assert queue.claim(key, "w0")
        past = time.time() - 60.0
        os.utime(queue.lease_path(key), (past, past))
        assert queue.break_if_stale(key)
        assert queue.claim(key, "w1")

    def test_heartbeat_keeps_a_lease_live(self, tmp_path):
        queue = WorkQueue.create(str(tmp_path / "q"), _points(1),
                                 lease_ttl_s=5.0)
        key = key_for(queue, queue.points[0])
        assert queue.claim(key, "w0")
        past = time.time() - 60.0
        os.utime(queue.lease_path(key), (past, past))
        queue.heartbeat(key)
        assert not queue.break_if_stale(key)


# ---------------------------------------------------------------------------
# Manifest round trip
# ---------------------------------------------------------------------------


class TestManifest:
    def test_points_round_trip_including_tuple_overrides(self, tmp_path):
        points = [
            RunPoint("doram+1/4", "li", LENGTH,
                     overrides=(("t_cycles", 60),
                                ("oram.leaf_level", 21))),
            RunPoint("7ns-4ch", "mc", LENGTH,
                     overrides=(("ns_channels", (1, 2, 3)),)),
        ]
        WorkQueue.create(str(tmp_path / "q"), points)
        queue = WorkQueue.join(str(tmp_path / "q"))
        assert queue.points == points
        assert [key_for(queue, p) for p in queue.points] == \
            [p.key() for p in points]

    def test_recreate_identical_is_idempotent(self, tmp_path):
        WorkQueue.create(str(tmp_path / "q"), _points(3))
        queue = WorkQueue.create(str(tmp_path / "q"), _points(3))
        assert len(queue.points) == 3

    def test_recreate_different_is_refused(self, tmp_path):
        WorkQueue.create(str(tmp_path / "q"), _points(3))
        with pytest.raises(WorkQueueError):
            WorkQueue.create(str(tmp_path / "q"), _points(4))

    def test_join_without_manifest_fails_clearly(self, tmp_path):
        with pytest.raises(WorkQueueError) as excinfo:
            WorkQueue.join(str(tmp_path / "nope"))
        assert "manifest" in str(excinfo.value)


# ---------------------------------------------------------------------------
# Drain semantics (satellite: lease lifecycle coverage)
# ---------------------------------------------------------------------------


class TestDrain:
    def test_serial_drain_matches_run_sweep_bytes(self, tmp_path):
        points = _points(3)
        serial_store = ResultStore(str(tmp_path / "serial"))
        run_sweep(points, workers=1, store=serial_store)

        queue = WorkQueue.create(str(tmp_path / "q"), points)
        drain = queue.drain(owner="w0")
        assert drain.completed == 3
        assert not drain.failed
        assert _store_bytes(queue.store) == _store_bytes(serial_store)

    def test_killed_workers_point_reruns_to_identical_bytes(self, tmp_path):
        """A stale lease (owner died mid-point) is reclaimed and the
        point re-runs to the same stored bytes a serial run produces."""
        points = _points(3)
        serial_store = ResultStore(str(tmp_path / "serial"))
        run_sweep(points, workers=1, store=serial_store)

        queue = WorkQueue.create(str(tmp_path / "q"), points,
                                 lease_ttl_s=5.0)
        # "w-dead" claimed a point and was SIGKILLed: lease on disk,
        # no heartbeat, no payload.
        dead_key = key_for(queue, points[1])
        assert queue.claim(dead_key, "w-dead")
        past = time.time() - 60.0
        os.utime(queue.lease_path(dead_key), (past, past))

        drain = queue.drain(owner="w-rescue")
        assert drain.reclaimed == 1
        assert drain.completed == 3
        assert _store_bytes(queue.store) == _store_bytes(serial_store)

    def test_resume_skips_done_points_and_honours_live_leases(
        self, tmp_path
    ):
        """Resume over partial state: done points are not re-simulated,
        and a live lease is waited on -- not stolen -- until its owner
        finishes."""
        points = _points(3)
        queue = WorkQueue.create(str(tmp_path / "q"), points,
                                 lease_ttl_s=30.0)
        # Point 0 already done by an earlier (partially lost) drain.
        done = run_sweep([points[0]], workers=1, store=queue.store)
        assert done.simulated == 1
        # Point 2 is held live by another worker.
        held_key = key_for(queue, points[2])
        assert queue.claim(held_key, "w-other")

        ran = []
        real_execute = wq_mod.execute_point

        def _spy(point, with_digest=False, timeout_s=None):
            ran.append(point)
            return real_execute(point, with_digest, timeout_s)

        wq_mod.execute_point = _spy
        try:
            box = {}

            def _drain():
                box["result"] = queue.drain(owner="w-new",
                                            poll_interval_s=0.02)

            worker = threading.Thread(target=_drain)
            worker.start()
            # The drain finishes point 1 then blocks on the live lease.
            deadline = time.monotonic() + 10.0
            while points[1] not in ran and time.monotonic() < deadline:
                time.sleep(0.01)
            assert points[1] in ran
            time.sleep(0.1)
            assert worker.is_alive(), \
                "drain must wait on a live lease, not steal it"
            # The other worker finishes its point and releases.
            payload = real_execute(points[2])
            queue.store.put(held_key, payload)
            queue.release(held_key)
            worker.join(10.0)
            assert not worker.is_alive()
        finally:
            wq_mod.execute_point = real_execute

        result = box["result"]
        assert result.completed == 1          # only point 1
        assert result.skipped >= 2            # points 0 and 2
        assert ran == [points[1]]             # nothing re-simulated
        assert queue.collect()[0].keys() == set(points)

    def test_failure_budget_is_shared_across_workers(self, tmp_path,
                                                     monkeypatch):
        """max_attempts bounds runs of a point across *all* workers:
        after worker A burns both attempts, worker B must not re-run."""
        points = _points(1)
        calls = []

        def _always(point, with_digest=False, timeout_s=None):
            calls.append(point)
            raise RuntimeError("deterministic bug")

        monkeypatch.setattr(wq_mod, "execute_point", _always)
        queue = WorkQueue.create(str(tmp_path / "q"), points)
        first = queue.drain(owner="wA")
        assert len(calls) == 2                # initial + one retry
        assert first.retried == 1
        assert points[0] in first.failed
        assert "deterministic bug" in first.failed[points[0]]

        second = queue.drain(owner="wB")
        assert len(calls) == 2                # B never re-ran it
        assert second.completed == 0
        assert not second.failed              # A already recorded it

        _payloads, failed = queue.collect()
        assert points[0] in failed

    def test_stats_readout(self, tmp_path):
        points = _points(4)
        queue = WorkQueue.create(str(tmp_path / "q"), points)
        # one done, one leased, one failed, one pending
        done = run_sweep([points[0]], workers=1, store=queue.store)
        assert done.simulated == 1
        queue.claim(key_for(queue, points[1]), "w0")
        queue.mark_failed(key_for(queue, points[2]), "w0", "boom")

        stats = queue.stats()
        assert (stats.total, stats.done, stats.leased,
                stats.pending, stats.failed) == (4, 1, 1, 1, 1)
        assert stats.stale == 0
        text = "\n".join(stats.describe())
        assert "4 total" in text and "1 done" in text


# ---------------------------------------------------------------------------
# Multi-process equivalence (the acceptance bar)
# ---------------------------------------------------------------------------


class TestMultiProcess:
    def test_three_worker_drain_is_byte_identical_to_serial(self, tmp_path):
        points = _points(5)
        serial_store = ResultStore(str(tmp_path / "serial"))
        run_sweep(points, workers=1, store=serial_store)

        result = run_sweep(points, workers=3, queue=str(tmp_path / "q"))
        queue = WorkQueue.join(str(tmp_path / "q"))
        assert not result.failed
        assert set(result.payloads) == set(points)
        assert _store_bytes(queue.store) == _store_bytes(serial_store)
        # Per-worker attribution: every point was completed exactly once
        # in aggregate.
        stats = queue.stats()
        assert stats.done == len(points)
        assert sum(w["completed"] for w in stats.workers) == len(points)

    def test_drain_survives_a_sigkilled_worker(self, tmp_path):
        """Kill one worker mid-drain, then resume with a fresh drain:
        the final store still matches the serial run byte for byte."""
        import multiprocessing

        points = _points(6)
        serial_store = ResultStore(str(tmp_path / "serial"))
        run_sweep(points, workers=1, store=serial_store)

        root = str(tmp_path / "q")
        queue = WorkQueue.create(root, points, lease_ttl_s=1.0)
        victim = multiprocessing.Process(
            target=wq_mod._drain_entry, args=(root, "w-victim")
        )
        victim.start()
        time.sleep(0.4)  # let it get partway through the drain
        if victim.is_alive():
            os.kill(victim.pid, signal.SIGKILL)
        victim.join(10.0)

        # Resume: wait out the short TTL so any orphaned lease is
        # stale, then drain to completion.
        time.sleep(1.1)
        drain = queue.drain(owner="w-resume")
        assert not drain.failed
        assert _store_bytes(queue.store) == _store_bytes(serial_store)


# ---------------------------------------------------------------------------
# run_sweep(queue=...) accounting
# ---------------------------------------------------------------------------


class TestQueueSweepAccounting:
    def test_warm_rerun_simulates_nothing(self, tmp_path, monkeypatch):
        """Re-declaring a drained sweep over its full store is all store
        hits (the merged executor's up-front check), not N simulated."""
        points = _points(3)
        store = ResultStore(str(tmp_path / "store"))
        first = run_sweep(points, store=store, queue=str(tmp_path / "q"))
        assert (first.simulated, first.store_hits) == (3, 0)

        monkeypatch.setattr(
            wq_mod, "execute_point",
            lambda *a, **k: pytest.fail("warm queue must not simulate"),
        )
        again = run_sweep(points, store=store, queue=str(tmp_path / "q"))
        assert (again.simulated, again.store_hits) == (0, 3)
        assert again.payloads == first.payloads

    def test_first_attempt_failure_counts_one_retry(self, tmp_path,
                                                    monkeypatch):
        points = _points(2)
        flaky = points[1]
        attempts = []
        real_execute = wq_mod.execute_point

        def _flaky(point, with_digest=False, timeout_s=None):
            if point == flaky:
                attempts.append(point)
                if len(attempts) == 1:
                    raise RuntimeError("transient worker wobble")
            return real_execute(point, with_digest, timeout_s)

        monkeypatch.setattr(wq_mod, "execute_point", _flaky)
        result = run_sweep(points, queue=str(tmp_path / "q"))
        assert result.retried == 1
        assert not result.failed
        assert result.simulated == 2
        assert set(result.payloads) == set(points)

    def test_torn_store_entry_is_resimulated(self, tmp_path):
        points = _points(2)
        store = ResultStore(str(tmp_path / "store"))
        run_sweep(points, store=store)
        healthy = _store_bytes(store)
        torn = points[0].key()
        with open(store.path_for(torn), "w") as fp:
            fp.write("{truncated")

        result = run_sweep(points, store=store, queue=str(tmp_path / "q"))
        assert (result.simulated, result.store_hits) == (1, 1)
        assert set(result.payloads) == set(points)
        assert _store_bytes(store) == healthy

    def test_no_resume_is_refused(self, tmp_path):
        with pytest.raises(ValueError, match="resume"):
            run_sweep(_points(1), resume=False, queue=str(tmp_path / "q"))
        assert not (tmp_path / "q").exists()

    def test_without_a_store_the_drain_fills_the_queue_store(
        self, tmp_path
    ):
        points = _points(2)
        serial_store = ResultStore(str(tmp_path / "serial"))
        run_sweep(points, store=serial_store)
        result = run_sweep(points, queue=str(tmp_path / "q"))
        assert result.store_root == str(tmp_path / "q" / "store")
        assert _store_bytes(ResultStore(result.store_root)) == \
            _store_bytes(serial_store)
