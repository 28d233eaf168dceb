"""Sweep runner: determinism, resume, store semantics, driver coverage.

The contract under test (see DESIGN.md "Sweep runner"):

* a parallel sweep is *bit-identical* to a serial one -- same canonical
  payload bytes, same PR-1 trace digests;
* the on-disk store makes sweeps resumable: killing a sweep halfway
  loses only the unfinished points, and a warm store re-simulates
  nothing;
* the trace length is an argument, never the environment: with
  ``DORAM_TRACE_LENGTH`` set, ``run_scheme`` runs at the length it is
  passed and ``figure_points`` declares ``DEFAULT_TRACE_LENGTH``;
* :func:`~repro.analysis.experiments.figure_points` declares *every*
  run each registered experiment's driver performs -- a driver runs over
  exactly its declared points' results.
"""

import json
import os

import pytest

from repro.analysis import experiments
from repro.analysis import sweep as sweep_mod
from repro.analysis.experiments import (
    EXPERIMENTS,
    figure_points,
    points_for_figures,
    runs_from,
)
from repro.analysis.sweep import (
    ResultStore,
    RunPoint,
    canonical_json,
    dedup_points,
    run_sweep,
)
from repro.core import schemes
from tests.analysis.run_memo import run_scheme

LENGTH = 100
BENCH = ["li"]


def _fig9_points():
    return figure_points("fig9", BENCH, LENGTH)


# ---------------------------------------------------------------------------
# Determinism
# ---------------------------------------------------------------------------


class TestParallelSerialEquivalence:
    def test_parallel_is_bit_identical_to_serial(self):
        """workers=4 must reproduce workers=1 exactly -- payload bytes
        and event-level trace digests both."""
        points = _fig9_points()
        serial = run_sweep(points, workers=1, store=None, with_digest=True)
        parallel = run_sweep(points, workers=4, store=None,
                             with_digest=True)
        assert set(serial.payloads) == set(parallel.payloads)
        for point in serial.payloads:
            s, p = serial.payloads[point], parallel.payloads[point]
            assert canonical_json(s) == canonical_json(p), point.label
            assert s["trace_digest"] == p["trace_digest"], point.label
        assert serial.simulated == parallel.simulated == len(
            dedup_points(points)
        )

    def test_store_round_trip_is_bit_identical(self, tmp_path):
        """What comes back from disk is byte-for-byte what was computed."""
        points = _fig9_points()[:3]
        store = ResultStore(str(tmp_path / "store"))
        live = run_sweep(points, workers=1, store=store)
        warm = run_sweep(points, workers=1, store=store)
        assert warm.simulated == 0
        for point in points:
            assert canonical_json(live.payloads[point]) == \
                canonical_json(warm.payloads[point])

    def test_deserialized_results_match_live_run(self):
        """SimResult.from_json_dict round-trips the exact-integer state."""
        point = RunPoint("doram", "li", LENGTH)
        sweep = run_sweep([point], workers=1, store=None)
        restored = sweep.results()[point]
        from repro.core.schemes import run_scheme

        live = run_scheme("doram", "li", LENGTH)
        assert canonical_json(restored.to_json_dict()) == \
            canonical_json(live.to_json_dict())


# ---------------------------------------------------------------------------
# Resume
# ---------------------------------------------------------------------------


class TestResume:
    def test_interrupted_sweep_resumes_without_resimulating(
        self, tmp_path, monkeypatch
    ):
        """Kill half the store; the rerun simulates exactly that half."""
        points = _fig9_points()
        store = ResultStore(str(tmp_path / "store"))
        first = run_sweep(points, workers=1, store=store)
        total = first.simulated
        assert total == len(dedup_points(points))

        keys = store.keys()
        lost = keys[: len(keys) // 2]
        for key in lost:
            assert store.delete(key)

        executed = []
        real = sweep_mod.execute_point
        monkeypatch.setattr(
            sweep_mod, "execute_point",
            lambda point, with_digest=False, timeout_s=None: (
                executed.append(point), real(point, with_digest)
            )[1],
        )
        second = run_sweep(points, workers=1, store=store)
        assert second.simulated == len(lost)
        assert second.store_hits == total - len(lost)
        assert len(executed) == len(lost)
        # No point ran twice, and the merged payloads match the originals.
        assert len(set(executed)) == len(executed)
        for point in points:
            assert canonical_json(second.payloads[point]) == \
                canonical_json(first.payloads[point])

    def test_interrupted_parallel_sweep_keeps_finished_points(
        self, tmp_path, monkeypatch
    ):
        """A workers=2 sweep interrupted part-way has already stored the
        points it finished, removes its private queue directory, and
        leaves no drain worker running; the rerun resumes from them."""
        import multiprocessing
        import tempfile

        from repro.analysis import workqueue

        points = dedup_points(_fig9_points())
        reference = run_sweep(points, workers=1, store=None)
        store = ResultStore(str(tmp_path / "store"))
        scratch = tmp_path / "tmp"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))

        parent = os.getpid()
        started = []
        real = workqueue.execute_point

        def interrupt_second_point(point, with_digest=False,
                                   timeout_s=None):
            if os.getpid() == parent:
                started.append(point)
                if len(started) == 2:
                    raise KeyboardInterrupt
            return real(point, with_digest, timeout_s)

        monkeypatch.setattr(workqueue, "execute_point",
                            interrupt_second_point)
        with pytest.raises(KeyboardInterrupt):
            run_sweep(points, workers=2, store=store)
        assert not multiprocessing.active_children()
        assert list(scratch.iterdir()) == []

        stored = set(store.keys())
        assert started[0].key() in stored
        by_key = {point.key(): point for point in points}
        for key in stored:
            assert canonical_json(store.get(key)) == canonical_json(
                reference.payloads[by_key[key]]
            )

        monkeypatch.setattr(workqueue, "execute_point", real)
        again = run_sweep(points, workers=2, store=store)
        assert again.store_hits == len(stored)
        assert again.simulated == len(points) - len(stored)
        for point in points:
            assert canonical_json(again.payloads[point]) == \
                canonical_json(reference.payloads[point])

    def test_warm_store_runs_nothing(self, tmp_path, monkeypatch):
        points = _fig9_points()
        store = ResultStore(str(tmp_path / "store"))
        run_sweep(points, workers=1, store=store)
        monkeypatch.setattr(
            sweep_mod, "execute_point",
            lambda *a, **k: pytest.fail("warm store must not simulate"),
        )
        warm = run_sweep(points, workers=1, store=store)
        assert warm.simulated == 0
        assert warm.store_hits == len(dedup_points(points))

    def test_store_hits_never_list_the_store(self, tmp_path, monkeypatch):
        """A store hit is one file read: a warm sweep must not walk the
        store's directories (``len(store)``) once per point."""
        point = RunPoint("baseline", "li", LENGTH)
        store = ResultStore(str(tmp_path / "store"))
        run_sweep([point], workers=1, store=store)
        monkeypatch.setattr(
            ResultStore, "keys",
            lambda self: pytest.fail("run_sweep listed the store"),
        )
        warm = run_sweep([point], workers=1, store=store)
        assert warm.store_hits == 1

    def test_no_resume_refreshes_but_ignores_entries(self, tmp_path):
        point = RunPoint("baseline", "li", LENGTH)
        store = ResultStore(str(tmp_path / "store"))
        run_sweep([point], workers=1, store=store)
        again = run_sweep([point], workers=1, store=store, resume=False)
        assert again.simulated == 1 and again.store_hits == 0


# ---------------------------------------------------------------------------
# Store semantics
# ---------------------------------------------------------------------------


class TestResultStore:
    def test_put_get_delete_roundtrip(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        key = "ab" + "0" * 62
        payload = {"schema": 1, "x": [1, 2, 3]}
        assert key not in store
        store.put(key, payload)
        assert key in store and store.get(key) == payload
        assert store.keys() == [key] and len(store) == 1
        assert store.delete(key) and key not in store
        assert not store.delete(key)

    def test_corrupt_entry_counts_as_miss(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        key = "cd" + "1" * 62
        store.put(key, {"ok": True})
        with open(store.path_for(key), "w") as fp:
            fp.write("{truncated")
        assert store.get(key) is None

    def test_writes_leave_no_tmp_litter(self, tmp_path):
        store = ResultStore(str(tmp_path / "s"))
        for i in range(8):
            store.put(f"{i:02d}" + "e" * 62, {"i": i})
        stray = [
            name
            for root, _dirs, names in os.walk(store.root)
            for name in names
            if not name.endswith(".json")
        ]
        assert stray == []

    def test_corrupt_store_entry_is_resimulated(self, tmp_path):
        point = RunPoint("baseline", "li", LENGTH)
        store = ResultStore(str(tmp_path / "s"))
        first = run_sweep([point], workers=1, store=store)
        key = point.key()
        with open(store.path_for(key), "w") as fp:
            fp.write("not json")
        second = run_sweep([point], workers=1, store=store)
        assert second.simulated == 1
        assert canonical_json(second.payloads[point]) == \
            canonical_json(first.payloads[point])

    def test_key_is_stable_under_override_order_and_aliases(self):
        a = RunPoint("doram", "li", LENGTH,
                     overrides=(("t_cycles", 60), ("seed", 2)))
        b = RunPoint("doram", "li", LENGTH,
                     overrides=(("seed", 2), ("t_cycles", 60)))
        assert a == b and a.key() == b.key()
        # Schema bumps retire every old entry.
        assert a.key() != a.key(with_digest=True)


# ---------------------------------------------------------------------------
# The trace length is an argument, not the environment
# ---------------------------------------------------------------------------


class TestCachedRunEnv:
    def test_default_length_ignores_env(self, monkeypatch):
        monkeypatch.setenv("DORAM_TRACE_LENGTH", "70")
        points = figure_points("fig9", ["li"])
        assert {point.trace_length for point in points} == \
            {experiments.DEFAULT_TRACE_LENGTH}

    def test_explicit_length_beats_env(self, monkeypatch):
        monkeypatch.setenv("DORAM_TRACE_LENGTH", "70")
        run = schemes.run_scheme("1ns", "li", trace_length=LENGTH)
        assert run.config.trace_length == LENGTH


# ---------------------------------------------------------------------------
# Figure-point coverage
# ---------------------------------------------------------------------------


class TestFigureCoverage:
    def test_primed_drivers_never_simulate(self):
        """figure_points must declare every run each registered
        experiment's driver performs, exhibits and ablations alike: each
        driver runs over exactly its declared points' results, where an
        undeclared run is a KeyError."""
        points = points_for_figures(list(EXPERIMENTS), BENCH, LENGTH)
        results = run_sweep(points, workers=1, store=None).results()
        for name, experiment in EXPERIMENTS.items():
            declared = {point: results[point]
                        for point in figure_points(name, BENCH, LENGTH)}
            experiment.driver(runs_from(declared), BENCH, LENGTH)

    def test_run_figures_outputs_match_serial_drivers(self, tmp_path):
        store = ResultStore(str(tmp_path / "store"))
        outputs, sweep = experiments.run_figures(
            ["fig9"], BENCH, LENGTH, workers=1, store=store
        )
        direct = experiments.fig9(run_scheme, BENCH, LENGTH)
        assert json.dumps(outputs["fig9"], sort_keys=True) == \
            json.dumps(direct, sort_keys=True)
        assert sweep.simulated == len(_fig9_points())

    def test_fig8_runs_the_first_benchmark_else_li(self):
        # ``libq`` is an alias of ``li``: declaring both would simulate
        # the same trace twice in a default sweep.
        assert {p.benchmark for p in figure_points("fig8")} == {"li"}
        assert {p.benchmark for p in figure_points("fig8", ["mu", "li"])} \
            == {"mu"}

    def test_points_deduplicate_across_figures(self):
        # fig9 subsumes fig11's runs; the union must not double-declare.
        union = points_for_figures(["fig9", "fig11"], BENCH, LENGTH)
        assert len(union) == len(set(union))
        assert len(union) == len(figure_points("fig9", BENCH, LENGTH))
