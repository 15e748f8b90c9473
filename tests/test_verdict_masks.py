"""Every ``verdict_mask`` against its own policy's scalar predicate.

The kernel reads a policy's whole rebroadcast bitmap at once, while
the reference engine and the shared-air simulator ask
``should_rebroadcast`` one AP at a time.  On random small cities and
meshes, every policy that offers ``verdict_mask(graph)`` must answer
exactly what ``should_rebroadcast(graph.aps[i])`` answers for every AP
``i`` — an oracle that involves neither event loop.  Coordinates come
from a coarse grid so that conduit, region and disc edges often touch
building edges and AP positions exactly.
"""

import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.apps import GeocastPolicy, RegionPolicy
from repro.city import Building, City
from repro.core import ThinnedConduitPolicy
from repro.geometry import ConduitPath, Point, Polygon
from repro.mesh import AccessPoint, APGraph
from repro.sim import ConduitPolicy, FloodPolicy, GossipPolicy
from repro.sim.broadcast import PositionConduitPolicy


@st.composite
def worlds(draw):
    """A city of at most 12 buildings, a mesh of at most 40 APs and one
    instance of every policy over them."""
    cols = draw(st.integers(min_value=1, max_value=4))
    rows = draw(st.integers(min_value=1, max_value=3))
    pitch = draw(st.sampled_from([30.0, 40.0, 55.0]))
    buildings = [
        Building(
            r * cols + c + 1,
            Polygon.rectangle(c * pitch, r * pitch, c * pitch + 30, r * pitch + 30),
        )
        for r in range(rows)
        for c in range(cols)
    ]
    city = City("masks", buildings)
    offset = st.sampled_from([0.0, 5.0, 15.0, 30.0]) | st.floats(0.0, 30.0)
    placements = draw(
        st.lists(
            st.tuples(st.integers(0, len(buildings) - 1), offset, offset),
            min_size=1,
            max_size=40,
        )
    )
    aps = []
    for i, (b, dx, dy) in enumerate(placements):
        x0, y0, _, _ = buildings[b].polygon.bbox
        aps.append(AccessPoint(i, Point(x0 + dx, y0 + dy), buildings[b].id))
    graph = APGraph(aps, transmission_range=50)

    grid = st.sampled_from([-10.0, 0.0, 15.0, 30.0, 40.0, 55.0, 85.0, 120.0, 200.0])
    point = st.builds(Point, grid, grid) | st.builds(
        Point, st.floats(-20.0, 230.0), st.floats(-20.0, 180.0)
    )
    conduits = ConduitPath.from_waypoints(
        draw(st.lists(point, min_size=1, max_size=4)),
        draw(st.sampled_from([5.0, 15.0, 30.0]) | st.floats(1.0, 60.0)),
    )
    x = sorted(draw(st.lists(grid, min_size=2, max_size=2, unique=True)))
    y = sorted(draw(st.lists(grid, min_size=2, max_size=2, unique=True)))
    region = draw(st.none() | st.just(Polygon.rectangle(x[0], y[0], x[1], y[1])))
    policies = [
        FloodPolicy(),
        ConduitPolicy(conduits, city),
        PositionConduitPolicy(conduits),
        ThinnedConduitPolicy(
            conduits,
            city,
            draw(st.integers(0, 2**16)),
            draw(st.sampled_from([1.0, 0.5]) | st.floats(0.01, 1.0)),
        ),
        RegionPolicy(city, region),
        GeocastPolicy(
            city, conduits, draw(point), draw(st.sampled_from([10.0, 25.0]) | st.floats(1.0, 90.0))
        ),
        # No mask: gossip draws from an RNG, so it stays lazy.
        GossipPolicy(0.5, random.Random(0)),
    ]
    return graph, policies


@given(worlds())
@settings(max_examples=200, deadline=None)
def test_verdict_mask_matches_should_rebroadcast(world):
    graph, policies = world
    for policy in policies:
        verdict_mask = getattr(policy, "verdict_mask", None)
        if verdict_mask is None:
            continue
        mask = verdict_mask(graph)
        assert mask.dtype == bool and mask.shape == (len(graph),), policy
        want = [policy.should_rebroadcast(ap) for ap in graph.aps]
        assert mask.tolist() == want, policy


def test_only_rng_drawing_and_user_policies_stay_lazy():
    """Every built-in stateless policy offers a mask; gossip, which may
    draw from the simulation RNG, does not."""
    masked = (
        FloodPolicy, ConduitPolicy, PositionConduitPolicy,
        ThinnedConduitPolicy, RegionPolicy, GeocastPolicy,
    )
    assert all(callable(getattr(cls, "verdict_mask", None)) for cls in masked)
    assert not hasattr(GossipPolicy, "verdict_mask")
