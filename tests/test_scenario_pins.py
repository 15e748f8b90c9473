"""Exact pins for scenario driver results.

The driver's alive state (outage coverage, damage, churn, bridge
deploys) and island detection have no independent oracle at timeline
scale, so these hashes hold them still across refactors: each is
``config_hash(result.to_json(manifest=False))`` — the deterministic
core of a result, every epoch report included.  Any change to which
APs are alive, how islands are counted or which flows are simulated
moves a hash.
"""

import pytest

from repro.obs import config_hash
from repro.scenario import generate_scenario, make_scenario, run_scenario

CANNED_PINS = {
    "slow-battery-drain": "46c1f28d0f2b77e1",
    "river-flood": "56f89d99a5cbaa27",
    "rolling-blackout": "acb52f4c884ec30a",
    "post-quake-churn": "52c684da39f951d0",
    "bridge-ap-recovery": "81143f98e4f517df",
}

# Every archetype on gridport world seed 5 with three mobile flows;
# the compound timeline deploys bridge APs mid-run.
ARCHETYPE_PINS = {
    "earthquake": "ced6f7e5a82af7cc",
    "flood": "84d5996019cfee8b",
    "brownout": "2ea5e39a2561d166",
    "compound": "57b752eac93d00c1",
}


def _digest(spec) -> str:
    return config_hash(run_scenario(spec).to_json(manifest=False))


@pytest.mark.parametrize("name", sorted(CANNED_PINS))
def test_canned_timeline_pinned(name):
    assert _digest(make_scenario(name)) == CANNED_PINS[name]


@pytest.mark.parametrize("archetype", sorted(ARCHETYPE_PINS))
def test_generated_archetype_pinned(archetype):
    spec = generate_scenario(archetype, 5, mobile_flows=3)
    assert _digest(spec) == ARCHETYPE_PINS[archetype]
