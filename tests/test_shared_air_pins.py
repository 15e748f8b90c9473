"""Exact pins for the shared-air collision model.

The traffic simulator has no independent oracle, so these values hold
it still across refactors of its event loop: the capacity experiment's
points and one-message runs over the jitter bench's gridport pairs.
Floats are compared with ``==`` — any change to event order or RNG
consumption moves them.
"""

import random

import pytest

from repro.experiments import build_world, run_capacity_sweep, sample_building_pairs
from repro.experiments.capacity import CapacityPoint
from repro.sim import ConduitPolicy, SimParams, TrafficMessage, simulate_traffic


@pytest.fixture(scope="module")
def gridport():
    return build_world("gridport", seed=0)


def test_capacity_points_pinned(gridport):
    points = run_capacity_sweep(world=gridport, rates=(2.0, 8.0), duration_s=5.0)
    assert points == [
        CapacityPoint(2.0, 11, 11, 0.4912204261252233, 0.19061371610800684),
        CapacityPoint(8.0, 42, 39, 0.48796374964599265, 0.17355556172312717),
    ]


# (source, dest) -> (delivered, delivery_time_s, transmissions,
# receptions, collisions) per jitter, drawn from one RNG per jitter in
# pair order, exactly as the jitter bench does.
JITTER_PINS = {
    0.0: [
        ((213, 78), (False, None, 81, 143, 1261)),
        ((123, 92), (False, None, 12, 18, 198)),
        ((233, 56), (False, None, 15, 33, 247)),
        ((150, 229), (False, None, 7, 30, 117)),
        ((217, 99), (False, None, 10, 18, 139)),
        ((195, 228), (False, None, 8, 22, 107)),
        ((236, 201), (False, None, 20, 58, 340)),
        ((108, 11), (False, None, 69, 149, 1083)),
        ((67, 131), (False, None, 10, 17, 141)),
        ((125, 104), (True, 0.016, 57, 211, 973)),
    ],
    0.05: [
        ((213, 78), (True, 0.13360173936181735, 147, 1280, 1347)),
        ((123, 92), (True, 0.014454549627588506, 20, 201, 119)),
        ((233, 56), (True, 0.2884126169614374, 128, 1231, 1075)),
        ((150, 229), (True, 0.12520177428361798, 114, 939, 1225)),
        ((217, 99), (True, 0.1994779097081753, 77, 893, 553)),
        ((195, 228), (True, 0.05629642742207564, 29, 266, 216)),
        ((236, 201), (True, 0.06470570161215022, 36, 456, 211)),
        ((108, 11), (True, 0.1515634359048886, 96, 824, 880)),
        ((67, 131), (True, 0.08953509010889053, 71, 701, 643)),
        ((125, 104), (True, 0.08760453388798152, 57, 659, 525)),
    ],
}


@pytest.mark.parametrize("jitter", sorted(JITTER_PINS))
def test_one_message_runs_pinned(gridport, jitter):
    pairs = sample_building_pairs(gridport, 10, random.Random(0))
    assert pairs == [pair for pair, _ in JITTER_PINS[jitter]]
    rng = random.Random(1)
    got = []
    for s, d in pairs:
        plan = gridport.router.plan(s, d)
        message = TrafficMessage(
            0, 0.0, gridport.graph.aps_in_building(s)[0], d,
            ConduitPolicy(plan.conduits, gridport.city),
        )
        r = simulate_traffic(gridport.graph, [message], rng, params=SimParams(jitter_s=jitter))
        o = r.outcomes[0]
        got.append(
            ((s, d), (o.delivered, o.delivery_time_s, o.transmissions,
                      r.total_receptions, r.total_collisions))
        )
    assert got == JITTER_PINS[jitter]
