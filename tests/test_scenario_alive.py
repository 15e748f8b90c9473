"""The scenario driver's alive masks and the island labels, each against
a plain reference (``tests/reference.py``)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.experiments import WorldSpec
from repro.geometry import Point
from repro.mesh import AccessPoint, APGraph, find_islands, island_labels
from repro.scenario import ScenarioDriver, generate_scenario, make_scenario, scenario_names
from repro.scenario.events import APChurn, Damage, DeployBridges, GridOutage, PowerRestored
from repro.scenario.generate import _disc, _rect
from repro.scenario.model import ScenarioSpec

from .reference import ReferenceAliveState, reference_components


class CheckedDriver(ScenarioDriver):
    """A driver that mirrors every state event into a
    :class:`ReferenceAliveState` and checks each alive mask it derives
    (per epoch, and before each bridge deploy) against the reference."""

    def __init__(self, spec):
        super().__init__(spec)
        self.reference = ReferenceAliveState(spec, self.graph)
        self.checked = 0

    def _apply_outage(self, ev, epoch):
        super()._apply_outage(ev, epoch)
        self.reference.outage(ev.region, epoch)

    def _apply_restore(self, ev):
        super()._apply_restore(ev)
        self.reference.restore(ev.region)

    def _apply_damage(self, ev):
        self.reference.damage(self.graph, ev.area)
        return super()._apply_damage(ev)

    def _apply_churn(self, ev, epoch):
        self.reference.churn(self.graph, ev, epoch)
        super()._apply_churn(ev, epoch)

    def _extend_state(self, new_aps):
        super()._extend_state(new_aps)
        self.reference.deployed([ap.id for ap in new_aps])

    def _alive_mask(self, epoch):
        mask = super()._alive_mask(epoch)
        assert mask.shape == (len(self.graph.aps),)
        expected = self.reference.alive_set(self.graph, epoch)
        assert set(np.flatnonzero(mask).tolist()) == expected, f"epoch {epoch}"
        self.checked += 1
        return mask


def run_checked(spec):
    with CheckedDriver(spec) as driver:
        result = driver.run()
    assert driver.checked >= spec.epochs
    return result


@pytest.mark.parametrize("name", scenario_names())
def test_canned_timeline_alive_masks(name):
    run_checked(make_scenario(name))


def test_bridge_deploys_extend_the_masks():
    """The compound archetype deploys bridge APs mid-run; every later
    mask covers them."""
    result = run_checked(generate_scenario("compound", 5, mobile_flows=3))
    assert sum(r.deployed_aps for r in result.epochs) > 0


# ----------------------------------------------------------------------
# Random gridport timelines
# ----------------------------------------------------------------------
#: gridport's footprint is about 2..816 m square for every seed.
LO, HI = 2.0, 816.0
unit = st.floats(min_value=0.0, max_value=1.0)


@st.composite
def regions(draw):
    x = LO + draw(unit) * (HI - LO)
    y = LO + draw(unit) * (HI - LO)
    if draw(st.booleans()):
        radius = draw(st.floats(min_value=20.0, max_value=400.0))
        return _disc(Point(x, y), radius, draw(st.sampled_from([5, 16])))
    w = draw(st.floats(min_value=20.0, max_value=600.0))
    h = draw(st.floats(min_value=20.0, max_value=600.0))
    return _rect(x, y, x + w, y + h)


@st.composite
def timelines(draw):
    epochs = draw(st.integers(min_value=3, max_value=5))
    epoch = st.integers(min_value=0, max_value=epochs - 1)
    events = []
    outage_regions = []
    for _ in range(draw(st.integers(min_value=2, max_value=7))):
        kind = draw(st.sampled_from(["outage", "restore", "churn", "damage"]))
        at = draw(epoch)
        if kind == "outage":
            region = draw(st.one_of(st.none(), regions()))
            outage_regions.append(region)
            events.append(GridOutage(at, region))
        elif kind == "restore":
            # A drawn outage's own region, every outage, or a region
            # that matches none.
            choices = [r for r in outage_regions if r is not None]
            region = draw(
                st.one_of(st.none(), regions(), *(
                    [st.sampled_from(choices)] if choices else []
                ))
            )
            events.append(PowerRestored(at, region))
        elif kind == "churn":
            until = draw(st.integers(min_value=at, max_value=epochs - 1))
            rate = draw(st.floats(min_value=0.0, max_value=0.5))
            events.append(APChurn(at, until, rate, draw(st.integers(1, 2))))
        else:
            events.append(Damage(at, draw(regions())))
    events.append(
        DeployBridges(
            draw(st.integers(min_value=1, max_value=epochs - 1)),
            min_island_size=draw(st.integers(min_value=1, max_value=3)),
        )
    )
    return ScenarioSpec(
        name="alive-property",
        world=WorldSpec("gridport", seed=draw(st.sampled_from([0, 1]))),
        epochs=epochs,
        epoch_hours=2.0,
        events=tuple(draw(st.permutations(events))),
        flows=2,
        battery_hours_range=(1.0, 6.0),
    )


@given(timelines())
@settings(max_examples=12, deadline=None)
def test_random_timeline_alive_masks(spec):
    run_checked(spec)


# ----------------------------------------------------------------------
# Island labels
# ----------------------------------------------------------------------
@given(
    st.lists(
        st.tuples(
            st.floats(min_value=0, max_value=400),
            st.floats(min_value=0, max_value=400),
            st.booleans(),
        ),
        max_size=60,
    )
)
@settings(max_examples=120, deadline=None)
def test_island_labels_match_plain_bfs(points):
    graph = APGraph(
        [AccessPoint(i, Point(x, y), i % 7) for i, (x, y, _a) in enumerate(points)],
        transmission_range=60.0,
    )
    alive = np.array([a for _x, _y, a in points], dtype=bool)
    labels, sizes = island_labels(graph, alive)
    comps = reference_components(graph.adjacency_lists(), alive.tolist())

    assert labels.shape == (len(points),)
    assert (labels[~alive] == -1).all()
    # Same partition, numbered by smallest member id.
    assert [set(np.flatnonzero(labels == k).tolist()) for k in range(len(sizes))] == comps
    assert sizes.tolist() == [len(c) for c in comps]
    assert [min(c) for c in comps] == sorted(min(c) for c in comps)
    # find_islands: the same components, largest first, ties by label.
    islands = find_islands(graph, alive=np.flatnonzero(alive).tolist())
    assert [i.ap_ids for i in islands] == [
        frozenset(c) for c in sorted(comps, key=len, reverse=True)
    ]
    assert [i.building_ids for i in islands] == [
        frozenset(graph.aps[a].building_id for a in i.ap_ids) for i in islands
    ]


def test_island_labels_all_dead_and_empty():
    graph = APGraph([AccessPoint(0, Point(0, 0), 1), AccessPoint(1, Point(10, 0), 1)])
    labels, sizes = island_labels(graph, np.zeros(2, dtype=bool))
    assert labels.tolist() == [-1, -1] and sizes.tolist() == []
    labels, sizes = island_labels(APGraph([]), np.zeros(0, dtype=bool))
    assert labels.shape == (0,) and sizes.shape == (0,)
