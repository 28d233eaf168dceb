"""Sweep robustness: torn store writes, point timeouts, bounded retry.

The contract (DESIGN.md "Fault model & recovery", sweep hardening):

* ``ResultStore.put`` is crash-atomic -- a reader never observes a torn
  entry, and a torn entry planted on disk (simulating a crash between
  write and rename on a pre-fsync store) counts as a miss and is
  re-simulated, healing the store;
* ``execute_point(timeout_s=...)`` bounds one point's wall clock from
  *inside* the process and raises
  :class:`~repro.analysis.sweep.PointTimeout`; the deadline works on
  the main thread (watchdog interrupt) and off the main thread (sidecar
  thread joined with a deadline);
* ``run_sweep`` gives a failing point exactly one more attempt, serial
  or drained, then records it in ``SweepResult.failed`` and keeps going
  -- a bad point costs its own result, not the sweep;
* ``run_figures`` refuses to evaluate drivers over a partial sweep
  (:class:`~repro.analysis.sweep.SweepFailure`): the drivers need every
  declared point.
"""

import time

import pytest

from repro.analysis import experiments
from repro.analysis import sweep as sweep_mod
from repro.analysis import workqueue as wq_mod
from repro.analysis.sweep import (
    PointTimeout,
    ResultStore,
    RunPoint,
    SweepFailure,
    canonical_json,
    run_sweep,
)

LENGTH = 100


def _point():
    return RunPoint("baseline", "li", LENGTH)


# ---------------------------------------------------------------------------
# Torn store writes
# ---------------------------------------------------------------------------


class TestTornWrites:
    def test_torn_entry_is_resimulated_and_healed(self, tmp_path):
        """A truncated store file (crash mid-write on a non-atomic
        store) must read as a miss, re-simulate, and be repaired."""
        point = _point()
        store = ResultStore(str(tmp_path / "store"))
        first = run_sweep([point], workers=1, store=store)
        path = store.path_for(point.key())
        with open(path) as fp:
            full = fp.read()

        with open(path, "w") as fp:
            fp.write(full[: len(full) // 2])
        assert store.get(point.key()) is None

        second = run_sweep([point], workers=1, store=store)
        assert second.simulated == 1
        assert second.store_hits == 0
        assert canonical_json(second.payloads[point]) == \
            canonical_json(first.payloads[point])
        with open(path) as fp:
            assert fp.read() == full

    def test_put_failure_leaves_old_entry_and_no_tmp(self, tmp_path,
                                                     monkeypatch):
        """If the durable write blows up mid-flight, the previous entry
        survives untouched and the unique tmp file is cleaned up."""
        store = ResultStore(str(tmp_path / "store"))
        store.put("ab" * 32, {"v": 1})

        def _boom(tmp, path):
            raise OSError("disk full")

        monkeypatch.setattr(sweep_mod.os, "replace", _boom)
        with pytest.raises(OSError):
            store.put("ab" * 32, {"v": 2})
        monkeypatch.undo()

        assert store.get("ab" * 32) == {"v": 1}
        import os
        for root, _dirs, files in os.walk(store.root):
            for name in files:
                assert name.endswith(".json"), (root, name)


# ---------------------------------------------------------------------------
# Point timeouts
# ---------------------------------------------------------------------------


class TestPointTimeout:
    def test_timeout_interrupts_a_wedged_point(self, monkeypatch):
        monkeypatch.setattr(
            sweep_mod, "_simulate_point",
            lambda point, with_digest=False: time.sleep(5.0),
        )
        started = time.monotonic()
        with pytest.raises(PointTimeout):
            sweep_mod.execute_point(_point(), timeout_s=0.05)
        assert time.monotonic() - started < 2.0

    def test_timeout_works_off_the_main_thread(self, monkeypatch):
        """The old SIGALRM budget silently degraded to 'unbudgeted' off
        the main thread; the deadline mechanism must still fire there
        (work-queue drains run points from worker loops and threads)."""
        monkeypatch.setattr(
            sweep_mod, "_simulate_point",
            lambda point, with_digest=False: time.sleep(5.0),
        )
        box = {}

        def _run():
            started = time.monotonic()
            try:
                sweep_mod.execute_point(_point(), timeout_s=0.05)
            except BaseException as exc:  # noqa: BLE001
                box["error"] = exc
            box["wall"] = time.monotonic() - started

        import threading

        worker = threading.Thread(target=_run)
        worker.start()
        worker.join(5.0)
        assert not worker.is_alive()
        assert isinstance(box.get("error"), PointTimeout)
        assert box["wall"] < 2.0

    def test_fast_point_result_passes_through_off_main_thread(self):
        box = {}

        def _run():
            box["payload"] = sweep_mod.execute_point(
                _point(), timeout_s=30.0
            )

        import threading

        worker = threading.Thread(target=_run)
        worker.start()
        worker.join(30.0)
        assert box["payload"]["result"]["end_time"] > 0

    def test_watchdog_is_disarmed_after_a_fast_point(self):
        """The deadline must not outlive the point it budgets: no
        watchdog timer threads linger once execute_point returns."""
        import threading

        payload = sweep_mod.execute_point(_point(), timeout_s=30.0)
        assert payload["result"]["end_time"] > 0
        lingering = [
            t for t in threading.enumerate()
            if isinstance(t, threading.Timer)
        ]
        assert lingering == []

    def test_no_timeout_means_no_watchdog(self, monkeypatch):
        calls = []

        class _Boom:
            def __init__(self, *a, **k):
                calls.append(a)

        import threading

        monkeypatch.setattr(threading, "Timer", _Boom)
        monkeypatch.setattr(sweep_mod.threading, "Timer", _Boom)
        sweep_mod.execute_point(_point())
        assert calls == []

    def test_errors_raised_off_main_thread_propagate(self, monkeypatch):
        """A point that *fails* under a deadline must surface its own
        error, not a timeout."""
        def _broken(point, with_digest=False):
            raise RuntimeError("inner failure")

        monkeypatch.setattr(sweep_mod, "_simulate_point", _broken)
        box = {}

        def _run():
            try:
                sweep_mod.execute_point(_point(), timeout_s=30.0)
            except BaseException as exc:  # noqa: BLE001
                box["error"] = exc

        import threading

        worker = threading.Thread(target=_run)
        worker.start()
        worker.join(5.0)
        assert isinstance(box.get("error"), RuntimeError)
        assert "inner failure" in str(box["error"])


# ---------------------------------------------------------------------------
# Bounded retry + surfaced failures
# ---------------------------------------------------------------------------


class TestBoundedRetry:
    def test_transient_failure_retries_once_and_succeeds(
        self, tmp_path, monkeypatch
    ):
        point = _point()
        attempts = []
        real = sweep_mod._simulate_point

        def _flaky(p, with_digest=False):
            attempts.append(p)
            if len(attempts) == 1:
                raise RuntimeError("transient worker wobble")
            return real(p, with_digest)

        monkeypatch.setattr(sweep_mod, "_simulate_point", _flaky)
        store = ResultStore(str(tmp_path / "store"))
        sweep = run_sweep([point], workers=1, store=store)
        assert len(attempts) == 2
        assert sweep.retried == 1
        assert not sweep.failed
        assert point in sweep.payloads
        assert store.get(point.key()) is not None

    def test_persistent_failure_is_recorded_not_raised(self, monkeypatch):
        point = _point()

        def _always(p, with_digest=False):
            raise RuntimeError("deterministic bug")

        monkeypatch.setattr(sweep_mod, "_simulate_point", _always)
        sweep = run_sweep([point], workers=1, store=None)
        assert sweep.retried == 1
        assert point in sweep.failed
        assert "deterministic bug" in sweep.failed[point]
        assert sweep.simulated == 0
        assert point not in sweep.payloads

    def test_timeout_in_serial_sweep_is_surfaced(self, monkeypatch):
        monkeypatch.setattr(
            sweep_mod, "_simulate_point",
            lambda point, with_digest=False: time.sleep(5.0),
        )
        point = _point()
        started = time.monotonic()
        sweep = run_sweep([point], workers=1, store=None, timeout_s=0.05)
        assert time.monotonic() - started < 2.0
        assert point in sweep.failed
        assert "PointTimeout" in sweep.failed[point]

    def test_one_bad_point_does_not_sink_the_sweep(self, monkeypatch):
        good = _point()
        bad = RunPoint("doram", "li", LENGTH)
        real = sweep_mod._simulate_point

        def _selective(p, with_digest=False):
            if p == bad:
                raise RuntimeError("only this point is broken")
            return real(p, with_digest)

        monkeypatch.setattr(sweep_mod, "_simulate_point", _selective)
        sweep = run_sweep([good, bad], workers=1, store=None)
        assert good in sweep.payloads
        assert bad in sweep.failed
        assert sweep.simulated == 1

    def test_run_figures_refuses_a_partial_sweep(self, monkeypatch):
        def _always(p, with_digest=False):
            raise RuntimeError("boom")

        monkeypatch.setattr(sweep_mod, "_simulate_point", _always)
        with pytest.raises(SweepFailure) as excinfo:
            experiments.run_figures(["fig9"], ["li"], LENGTH, workers=1,
                                    store=None)
        assert "boom" in str(excinfo.value)
        assert excinfo.value.sweep_result.failed


# ---------------------------------------------------------------------------
# Parallel (work-queue drain) path
# ---------------------------------------------------------------------------


def _failing_execute(point, with_digest=False, timeout_s=None):
    raise RuntimeError(f"worker refused {point.label}")


class TestParallelFailures:
    def test_pool_failures_drain_without_hanging(self, monkeypatch):
        """Every point failing in the drain workers must terminate the
        sweep with all failures recorded and every retry counted."""
        points = [_point(), RunPoint("doram", "li", LENGTH)]
        monkeypatch.setattr(wq_mod, "execute_point", _failing_execute)
        sweep = run_sweep(points, workers=2, store=None)
        assert set(sweep.failed) == set(points)
        assert sweep.retried == len(points)
        assert not sweep.payloads
