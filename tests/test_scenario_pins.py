"""Exact pins for scenario driver results.

The driver's alive state (outage coverage, damage, churn, bridge
deploys) and island detection have no independent oracle at timeline
scale, so these hashes hold them still across refactors: each is
``config_hash(result.to_json(manifest=False))`` — the deterministic
core of a result, every epoch report included.  Any change to which
APs are alive, how islands are counted or which flows are simulated
moves a hash.

Every pinned run goes through :class:`PlanCheckedDriver`, which also
checks that each plan the driver broadcasts carries the conduits a
receiving AP would rebuild from its header's waypoints: the driver
hands ``plan.conduits`` to the kernel on the strength of that identity.
"""

import pytest

from repro.core import conduits_for_waypoints
from repro.obs import config_hash
from repro.scenario import (
    CongestionSpec,
    ScenarioDriver,
    generate_scenario,
    make_scenario,
)

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

# The shared-air branch: every epoch's flows contend in a 0.5 s window.
CONGESTED_PINS = {
    "flood-7": (
        lambda: generate_scenario("flood", 7, congestion=CongestionSpec(0.5)),
        "65efce6fb8384beb",
    ),
    "compound-3-mobile": (
        lambda: generate_scenario(
            "compound", 3, congestion=CongestionSpec(0.5), mobile_flows=2
        ),
        "4900b95d57634e5d",
    ),
}


class PlanCheckedDriver(ScenarioDriver):
    """A driver that checks, before each simulate stage, that every
    flow's plan carries the conduits its waypoints rebuild."""

    checked = 0

    def _simulate(self, epoch, alive, labels):
        city = self.world.city
        width = self.spec.world.conduit_width
        for flow in self._static + self._mobile:
            if flow.plan is None:
                continue
            centroids = [city.building(b).centroid() for b in flow.plan.waypoint_ids]
            assert flow.plan.conduits == conduits_for_waypoints(centroids, width), (
                f"epoch {epoch}: plan conduits differ for {flow.pair}"
            )
            self.checked += 1
        return super()._simulate(epoch, alive, labels)


def _digest(spec) -> str:
    with PlanCheckedDriver(spec) as driver:
        result = driver.run()
    assert driver.checked > 0
    return config_hash(result.to_json(manifest=False))


@pytest.mark.parametrize("name", sorted(CANNED_PINS))
def test_canned_timeline_pinned(name):
    assert _digest(make_scenario(name)) == CANNED_PINS[name]


@pytest.mark.parametrize("archetype", sorted(ARCHETYPE_PINS))
def test_generated_archetype_pinned(archetype):
    spec = generate_scenario(archetype, 5, mobile_flows=3)
    assert _digest(spec) == ARCHETYPE_PINS[archetype]


@pytest.mark.parametrize("name", sorted(CONGESTED_PINS))
def test_congested_timeline_pinned(name):
    make, pin = CONGESTED_PINS[name]
    assert _digest(make()) == pin
