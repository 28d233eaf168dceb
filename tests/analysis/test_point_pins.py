"""Pins of every sweep point kind's content address and payload.

A store entry's file name is its point's content key, so a change that
silently re-keys a point makes every resumed sweep re-simulate from
scratch, and a shared queue's store miss every entry its workers wrote.
These pins hold, for each point kind, what the key is computed from:

* :class:`~repro.analysis.sweep.RunPoint` keys under both digest flags
  (a scheme alias, a trace segment, config overrides), and the sha256
  of all 83 keys of every registered experiment at three benchmarks;
* :class:`~repro.scenarios.sweep.ScenarioPoint` keys of a 2 x 2 SLO grid;
* for each ``examples/campaigns/*.json`` spec, plus one inline spec that
  varies every field a campaign can vary in ``uniform`` mode: the sha256
  of its plan stream, of its grid's keys (both flags) and of its
  ``describe()`` text (the ``doram chaos --dry-run`` output);
* the sha256 of one traced payload of each kind, minus its ``"point"``
  doc (the envelope, result and trace digest a store entry holds).

No tool regenerates these values.  A change that moves one re-keys
every existing store and must say so.
"""

import hashlib
import json
from pathlib import Path

import pytest

from repro.analysis.experiments import EXPERIMENTS, points_for_figures
from repro.analysis.sweep import RunPoint, canonical_json, execute_point
from repro.faults.campaign import CampaignSpec
from repro.scenarios.sweep import scenario_grid

EXAMPLES = Path(__file__).resolve().parents[2] / "examples" / "campaigns"

RUN_POINTS = (
    RunPoint("doram", "li", 200),
    RunPoint("1s7ns", "fe", 200),
    RunPoint("baseline", "libq", 300, segment=1),
    RunPoint("doram+1/4", "c4", 150,
             overrides=(("t_cycles", 60), ("seed", 2))),
)

#: Overrides of the pinned SLO grid and of the traced scenario payload.
SCENARIO_BASE = {"horizon_ns": 8000.0, "oram.leaf_level": 12}

#: Every field a campaign varies, each drawn in ``uniform`` mode; the
#: rules without ``link`` / ``channel`` take the campaign defaults.
UNIFORM_SPEC = {
    "name": "every-varying-field",
    "points": 4,
    "seed": 3,
    "scenario": {"num_tenants": 2, "horizon_ns": 20000.0,
                 "queue_cap": 256, "oram.leaf_level": 12},
    "link": [
        {"kind": "delay", "delay_ns": 40.0,
         "rate": {"lo": 0.0, "hi": 0.1, "mode": "uniform"}},
        {"kind": "corrupt", "link": "bob*.up", "tag": "raw",
         "rate": {"lo": 0.01, "hi": 0.05, "mode": "uniform"}},
    ],
    "dram": [
        {"rate": {"lo": 0.001, "hi": 0.01, "mode": "uniform"}},
    ],
    "delegator": [
        {"kind": "stall",
         "start_ns": {"lo": 1000.0, "hi": 5000.0, "mode": "uniform"},
         "duration_ns": {"lo": 200.0, "hi": 900.0, "mode": "uniform"}},
        {"kind": "crash",
         "start_ns": {"lo": 12000.0, "hi": 16000.0, "mode": "uniform"}},
    ],
    "slo_ns": 3000.0,
    "trace_length": 100,
    "functional_ops": 40,
}

RUN_KEYS = {
    "doram/li@200.0": (
        "f26f42373ccf943080c7154245671f83e792138ee990c45c178fa424eec86892",
        "ebe5cc73efc6ddd87cc176ec4dbfbb3b9f5fce0a604647a78f16edc5ba9e385c"),
    "1s7ns/fe@200.0": (
        "714abf2f6adddc049876d14a8ca7ee3c745423804eaedaa40ee40738cb13ef22",
        "223e6e2146823d3d84c212eac32dbb7d62ee4d3986c98a66522eee91efc67a30"),
    "baseline/libq@300.1": (
        "050484c5df4746f0de55e583093f87151005178fad4e91e992a3c5fec0cbb26e",
        "11c7e1a5bfd79deef6e1409a71a86693e719cdbc128852ed11284c266e9247d6"),
    "doram+1/4/c4@150.0 seed=2 t_cycles=60": (
        "7b2eac7ffcd9f20cfea83e04da0576a146ffc47305db41e597100b2707db1603",
        "b329c45f5d02ee765a9df51ff06dbf727887e54e75fd83a799e683d173d9cd2f"),
}

FIGURE_KEYS_SHA256 = (
    "51729f93ede3d6f4bef6f2cb1f219cc878cbaf226c38df5840f8b7cd493d25f0")

SCENARIO_KEYS = [
    ("cd14742dcc5334b77c3939eb90543319b6eeefee4e2b35cb668a947ec18e8f9c",
     "6109642e17b5c2f18075c07716f0e7a3e3cf0d1cf383b2208fdd3e5b1dfcf0bb"),
    ("19d588a1204b42143ee77995569a32f72444fb5844360886b3676b5d1de69924",
     "bb33077036199196f2933760d6a8d7f47db171034257d26095592b486066986c"),
    ("3f72c121b0c9524a9820e0b1c441669953cfbf95099d3889c2edc823e2f1cddc",
     "e81a341d237ade2c1254ebb793fdb0b91734304efe72769eb9dd7a9944c10325"),
    ("405ef2d03960017f4c6e7bb8e1444f2ed4c4c5ec6b95909ea9317ebf16366d3b",
     "1c9f6584119853383cbe7364c8c5c059525c82a00cc41ff8c426341ee8d5193e"),
]

#: Per campaign: the sha256 of its plan stream, of its grid's keys and
#: of its ``describe()`` lines.
CAMPAIGN_PINS = {
    "ci-smoke": (
        "8d4356af88b22e0b68a22bf4119f7b2245fa059c1c2512694ff94a61b9c83ce9",
        "d9f2ac363ac0e5f99a8c34082c006edf8508654e9922c98142bb3a0f10bf9ae8",
        "f4b96432eb21e82745807d5592974adb34c9d0044c61f1d5b43175132654e859"),
    "dram-soft-errors": (
        "77172754dcef090050cfa97a806ec5bd7ef47f3db57851d42e9d365d44eef261",
        "e9a251d0651a78125ff6f980df5501632f2d70438e1ab4ceb051f329705546e1",
        "870300ed8d61e21218b75dac0acf6c70c7b1ca49ebc362614f0c24b5d1eb5445"),
    "link-degradation": (
        "44efdb23b8bf041e6eb67357b4c97afe6650a4b59374a4c07d063408176669f8",
        "bbbd8bf7484f560f4e7141cd2b34cf212ab751ebc6661c9b4323519acefd97b1",
        "28976159eeb583ec1c6c209bb3af8f10690fa4cb297848a519afc0ea4fe59f44"),
    "sd-crash-storm": (
        "6696098c1b0cdd18a71d15f15eb74e256c782631ed32aa36ca52ef077652806c",
        "a551c2fcfc2e2ecee7c433214ab52552a7977c9a28e24a2eeac4f719118a7f1f",
        "be9cb556012e81b5aef22a6d311208fbf8ab130dbce267a467327a70e3ac4d55"),
    "every-varying-field": (
        "6f9b2a33f13a8f771b947726e1abfb69b8079d6f49f938367b4790b0e2bf4c8b",
        "742a9709dbf76fd2e33b7464f35fc8c00348546f988cedd359e34ad2e24aca27",
        "fc94f91d0d7e82a09c83b45e4fa41c6bc082d6d95bb82aa04639aeda65d5fe42"),
}

PAYLOAD_PINS = {
    "run": (
        "dd33d1d87b93534c8d37daad960752cf8830ae46d9b11028ef57489714548a88"),
    "scenario": (
        "94cf72e377908fb0b8fc67f72acfb30f387dd268b98ca9a03111d29ebe33367e"),
    "chaos": (
        "2ec6ace12eaae63ce839450f55a023e3bd0e24a51c3a0b9474adc87cd28dd300"),
}


def _sha256(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _both_keys(point) -> str:
    return f"{point.key(False)} {point.key(True)}"


def _figure_points():
    return points_for_figures(tuple(EXPERIMENTS), ["c4", "fe", "le"], 200)


def _figure_keys_sha256() -> str:
    return _sha256("\n".join(_both_keys(p) for p in _figure_points()))


def _scenario_points():
    return scenario_grid([2, 4], [1e5, 2e5], SCENARIO_BASE)


def _campaigns():
    specs = [(path.stem, CampaignSpec.from_file(str(path)))
             for path in sorted(EXAMPLES.glob("*.json"))]
    specs.append((UNIFORM_SPEC["name"],
                  CampaignSpec.from_json_dict(UNIFORM_SPEC)))
    return specs


def _campaign_digests(spec):
    plans = [spec.plan_for(i).to_json_dict() for i in range(spec.points)]
    return (
        _sha256(canonical_json(plans)),
        _sha256("\n".join(_both_keys(p) for p in spec.grid())),
        _sha256("\n".join(spec.describe())),
    )


def _payload_points():
    smoke = CampaignSpec.from_file(str(EXAMPLES / "ci-smoke.json"))
    return [
        ("run", RunPoint("doram", "li", 100)),
        ("scenario", scenario_grid([2], [1e5], SCENARIO_BASE)[0]),
        # Point 2, workload 0: the top of the link-corruption ramp.
        ("chaos", smoke.grid()[4]),
    ]


def _payload_sha256(point) -> str:
    payload = dict(execute_point(point, True))
    del payload["point"]
    return _sha256(canonical_json(payload))


class TestRunPointKeys:
    @pytest.mark.parametrize("point", RUN_POINTS, ids=lambda p: p.label)
    def test_key_under_both_digest_flags(self, point):
        assert (point.key(False), point.key(True)) == RUN_KEYS[point.label]

    def test_every_registered_experiment_keeps_its_keys(self):
        assert len(_figure_points()) == 83
        assert _figure_keys_sha256() == FIGURE_KEYS_SHA256


class TestScenarioPointKeys:
    def test_slo_grid_keys(self):
        assert [(p.key(False), p.key(True))
                for p in _scenario_points()] == SCENARIO_KEYS


class TestCampaignPins:
    @pytest.mark.parametrize("name,spec", _campaigns(),
                             ids=[name for name, _ in _campaigns()])
    def test_plans_keys_and_dry_run(self, name, spec):
        assert _campaign_digests(spec) == CAMPAIGN_PINS[name]

    def test_a_crash_rule_has_no_duration_in_its_plan(self):
        doc = json.loads(json.dumps(UNIFORM_SPEC))
        doc["delegator"][1]["duration_ns"] = 300.0
        spec = CampaignSpec.from_json_dict(doc)
        for index in range(spec.points):
            crash = spec.plan_for(index).delegator[1]
            assert crash.kind == "crash" and crash.duration_ns == 0.0


class TestPayloadPins:
    @pytest.mark.parametrize("name,point", _payload_points(),
                             ids=[name for name, _ in _payload_points()])
    def test_traced_payload_minus_point_doc(self, name, point):
        assert _payload_sha256(point) == PAYLOAD_PINS[name]
