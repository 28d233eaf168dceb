"""Configuration is explicit: the simulator reads no backend environment.

There is one simulator path.  The only engine knob, the periodic mode,
is an argument (``Engine(periodic=...)``, forwarded by ``run_scheme`` and
``run_scenario``) that is validated where it enters.  The environment
variables that once selected a scheduler, periodic mode, DRAM backend or
link backend must have no effect on a run, whatever their value.
"""

import pytest

from repro.core.schemes import run_scheme
from repro.scenarios import golden_scenario_config, run_scenario
from repro.sim.engine import Engine

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
