"""Configuration is explicit: ``src/`` reads no environment.

No file under ``src/`` touches ``os.environ``, ``getenv``, ``putenv`` or
``sys.path``: a run's configuration is exactly its arguments, and the
package imports the same from a checkout or an installed copy.  Neither
does a benchmark script outside ``benchmarks/e2e``.

There is one simulator path.  The only engine knob, the periodic mode,
is an argument (``Engine(periodic=...)``, forwarded by ``run_scheme`` and
``run_scenario``) that is validated where it enters.  The environment
variables that once selected a scheduler, periodic mode, DRAM backend or
link backend must have no effect on a run, whatever their value.  The
same holds for the sweep worker count and store directory: they are
``--workers``/``--store`` arguments, not ``DORAM_SWEEP_*`` variables.
"""

import os
import re

import pytest

from repro.analysis.sweep import ResultStore
from repro.cli import build_parser
from repro.core.schemes import run_scheme
from repro.scenarios import golden_scenario_config, run_scenario
from repro.sim.engine import Engine

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
BENCHMARKS = os.path.join(ROOT, "benchmarks")

_ENV_READ = re.compile(r"os\.environ|getenv|putenv|sys\.path")


def _env_reads(paths):
    hits = []
    for path in paths:
        with open(path) as fp:
            hits += [f"{os.path.relpath(path, ROOT)}:{n}"
                     for n, line in enumerate(fp, 1)
                     if _ENV_READ.search(line)]
    return hits


def test_src_reads_no_environment_and_no_import_path():
    assert _env_reads(
        os.path.join(root, name)
        for root, _dirs, files in os.walk(SRC)
        for name in files if name.endswith(".py")
    ) == []


def test_benchmark_scripts_read_no_environment():
    """Outside the ``e2e`` harness (which records the host's settings),
    a benchmark script's scale is its own constants; the repo root's
    ``conftest.py`` puts ``src/`` on the path."""
    assert _env_reads(
        os.path.join(BENCHMARKS, name)
        for name in sorted(os.listdir(BENCHMARKS)) if name.endswith(".py")
    ) == []


#: Variables that selected the removed backends and the periodic mode.
RETIRED_VARS = ("DORAM_SCHED", "DORAM_PERIODIC", "DORAM_DRAM",
                "DORAM_LINK", "DORAM_WHEEL_BUCKET")

ENVIRONMENTS = {
    "former-backends": {
        "DORAM_SCHED": "wheel",
        "DORAM_PERIODIC": "eager",
        "DORAM_DRAM": "kernel",
        "DORAM_LINK": "kernel",
        "DORAM_WHEEL_BUCKET": "1",
    },
    "bogus": {var: "bogus" for var in RETIRED_VARS},
}


def _observe():
    sim = run_scheme("doram", "libq", 300)
    scenario = run_scenario(golden_scenario_config())
    return (sim.to_json_dict(), sim.raw_events,
            scenario.to_json_dict(), scenario.raw_events)


@pytest.fixture(scope="module")
def clean_run():
    with pytest.MonkeyPatch.context() as mp:
        for var in RETIRED_VARS:
            mp.delenv(var, raising=False)
        return _observe()


@pytest.mark.parametrize("name", sorted(ENVIRONMENTS))
def test_environment_does_not_change_a_run(name, clean_run, monkeypatch):
    for var, value in ENVIRONMENTS[name].items():
        monkeypatch.setenv(var, value)
    assert _observe() == clean_run


@pytest.mark.parametrize("mode", ["bogus", "", "LAZY", None])
def test_engine_rejects_unknown_periodic_mode(mode):
    with pytest.raises(ValueError, match="periodic"):
        Engine(periodic=mode)


def test_run_scheme_validates_periodic_mode():
    with pytest.raises(ValueError, match="periodic"):
        run_scheme("doram", "libq", 50, periodic="bogus")


def test_sweep_env_vars_change_no_default(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)

    def _defaults():
        args = build_parser().parse_args(["sweep"])
        return args.workers, args.store, ResultStore().root

    monkeypatch.delenv("DORAM_SWEEP_WORKERS", raising=False)
    monkeypatch.delenv("DORAM_SWEEP_STORE", raising=False)
    clean = _defaults()
    assert clean == (os.cpu_count() or 1, None, ".doram-sweep")
    monkeypatch.setenv("DORAM_SWEEP_WORKERS", "7")
    monkeypatch.setenv("DORAM_SWEEP_STORE", str(tmp_path / "elsewhere"))
    assert _defaults() == clean
