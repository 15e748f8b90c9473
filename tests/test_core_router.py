"""Tests for BuildingRouter and the AP-side conduit membership."""

import random

import pytest

from repro.buildgraph import BuildingGraph, NoRouteError
from repro.city import Building, City, grid_downtown, make_city
from repro.core import BuildingRouter, ConduitMembership
from repro.geometry import Point, Polygon


def linear_city(n=6, size=30.0, gap=15.0):
    """A row of square buildings with predictable connectivity."""
    buildings = []
    for i in range(n):
        x0 = i * (size + gap)
        buildings.append(Building(i + 1, Polygon.rectangle(x0, 0, x0 + size, size)))
    return City("line", buildings)


class TestBuildingRouter:
    def test_width_validation(self):
        with pytest.raises(ValueError):
            BuildingRouter(linear_city(), conduit_width=0)

    def test_plan_route_endpoints(self):
        city = linear_city()
        router = BuildingRouter(city)
        plan = router.plan(1, 6)
        assert plan.route[0] == 1
        assert plan.route[-1] == 6
        assert plan.waypoint_ids[0] == 1
        assert plan.waypoint_ids[-1] == 6

    def test_straight_line_compresses_to_two_waypoints(self):
        city = linear_city()
        plan = BuildingRouter(city).plan(1, 6)
        assert len(plan.waypoint_ids) == 2

    def test_header_roundtrips_waypoints(self):
        city = linear_city()
        plan = BuildingRouter(city).plan(1, 6)
        assert plan.header.waypoints == plan.waypoint_ids

    def test_same_building_route(self):
        city = linear_city()
        plan = BuildingRouter(city).plan(3, 3)
        assert plan.route == (3,)
        assert plan.waypoint_ids == (3,)

    def test_unknown_building_raises(self):
        with pytest.raises(KeyError):
            BuildingRouter(linear_city()).plan(1, 99)

    def test_disconnected_raises(self):
        buildings = [
            Building(1, Polygon.rectangle(0, 0, 20, 20)),
            Building(2, Polygon.rectangle(1000, 0, 1020, 20)),
        ]
        router = BuildingRouter(City("split", buildings))
        with pytest.raises(NoRouteError):
            router.plan(1, 2)

    def test_message_ids_unique_by_default(self):
        router = BuildingRouter(linear_city())
        a = router.plan(1, 6)
        b = router.plan(1, 6)
        assert a.header.message_id != b.header.message_id

    def test_explicit_message_id(self):
        router = BuildingRouter(linear_city())
        plan = router.plan(1, 6, message_id=42)
        assert plan.header.message_id == 42

    def test_make_packet(self):
        router = BuildingRouter(linear_city())
        pkt, plan = router.make_packet(1, 6, payload=b"hi")
        assert pkt.payload == b"hi"
        assert pkt.header == plan.header

    def test_max_building_id_override(self):
        city = linear_city()
        wide = BuildingRouter(city, max_building_id=100_000).plan(1, 6)
        narrow = BuildingRouter(city).plan(1, 6)
        assert wide.header.id_bits == 17
        assert narrow.header.id_bits < wide.header.id_bits
        assert wide.route_bits > narrow.route_bits

    def test_max_building_id_too_small(self):
        with pytest.raises(ValueError):
            BuildingRouter(linear_city(), max_building_id=2)

    def test_custom_graph_used(self):
        city = linear_city()
        graph = BuildingGraph(city, weight_exponent=1.0)
        router = BuildingRouter(city, graph=graph)
        assert router.graph is graph

    def test_conduits_cover_route_centroids(self):
        city = make_city("parkside", seed=0)
        router = BuildingRouter(city)
        ids = [b.id for b in city.buildings]
        rng = random.Random(1)
        for _ in range(10):
            s, d = rng.sample(ids, 2)
            plan = router.plan(s, d)
            for b in plan.route:
                assert plan.conduits.contains(router.graph.centroid(b)), (s, d, b)


class TestConduitMembership:
    def test_should_rebroadcast_inside(self):
        city = linear_city()
        plan = BuildingRouter(city).plan(1, 6)
        m = ConduitMembership(city)
        assert m.should_rebroadcast(plan.header, city.building(3).centroid())

    def test_should_not_rebroadcast_outside(self):
        city = linear_city()
        plan = BuildingRouter(city).plan(1, 6)
        m = ConduitMembership(city)
        assert not m.should_rebroadcast(plan.header, Point(100, 500))

    def test_cache_reuses_path(self):
        city = linear_city()
        plan = BuildingRouter(city).plan(1, 6)
        m = ConduitMembership(city)
        first = m.conduits_of(plan.header)
        second = m.conduits_of(plan.header)
        assert first is second

    def test_unknown_waypoint_raises(self):
        city = linear_city()
        plan = BuildingRouter(city).plan(1, 6)
        other = City("other", [Building(99, Polygon.rectangle(0, 0, 5, 5))])
        m = ConduitMembership(other)
        with pytest.raises(KeyError):
            m.conduits_of(plan.header)

    def test_graph_mutation_invalidates_conduit_cache(self):
        """Version bump must drop cached conduit paths, not serve
        geometry computed against the pre-mutation map."""
        city = linear_city()
        graph = BuildingGraph(city)
        plan = BuildingRouter(city, graph=graph).plan(1, 6)
        m = ConduitMembership(city, graph=graph)
        first = m.conduits_of(plan.header)
        assert m.conduits_of(plan.header) is first  # warm
        graph.add_link(1, 3)
        after_add = m.conduits_of(plan.header)
        assert after_add is not first
        graph.patch(remove=[2], add_links=[(1, 3)])
        assert m.conduits_of(plan.header) is not after_add

    def test_graphless_membership_keeps_cache(self):
        """Without a graph there is no version to watch — the cache
        behaves exactly as before."""
        city = linear_city()
        plan = BuildingRouter(city).plan(1, 6)
        m = ConduitMembership(city)
        assert m.conduits_of(plan.header) is m.conduits_of(plan.header)

    def test_patch_invalidates_route_cache_and_membership(self):
        """The satellite regression: one ``patch()`` call must
        invalidate both the route LRU and the conduit cache — a stale
        route through a demolished building must never be served."""
        city = linear_city()
        graph = BuildingGraph(city)
        router = BuildingRouter(city, graph=graph)
        m = ConduitMembership(city, graph=graph)
        plan = router.plan(1, 6)
        assert 4 in plan.route
        warm = m.conduits_of(plan.header)
        version = graph.version
        assert graph.patch(remove=[4])
        assert graph.version == version + 1
        # Stale route 1→…→4→…→6 must not survive: the line is now cut.
        with pytest.raises(NoRouteError):
            router.plan(1, 6)
        # Announce a bridge over the gap; the replanned route avoids 4.
        graph.patch(add_links=[(3, 5)])
        replanned = router.plan(1, 6)
        assert 4 not in replanned.route
        assert m.conduits_of(plan.header) is not warm

    def test_membership_matches_sender_conduits(self):
        city = make_city("gridport", seed=0)
        router = BuildingRouter(city)
        ids = [b.id for b in city.buildings]
        plan = router.plan(ids[0], ids[-1])
        m = ConduitMembership(city)
        rng = random.Random(5)
        min_x, min_y, max_x, max_y = city.bounds()
        for _ in range(100):
            p = Point(rng.uniform(min_x, max_x), rng.uniform(min_y, max_y))
            assert m.should_rebroadcast(plan.header, p) == plan.conduits.contains(p)

    def test_ap_side_conduits_equal_the_senders(self):
        """The columnar verdict-mask cache is keyed by ``ConduitPath``
        value: what an AP rebuilds from the header must equal — and
        hash like — what the sender planned, or every lookup misses."""
        city = grid_downtown(seed=0, blocks_x=6, blocks_y=6)
        graph = BuildingGraph(city)
        router = BuildingRouter(city, graph=graph)
        membership = ConduitMembership(city, graph=graph)
        rng = random.Random(8)
        ids = list(graph)
        planned = 0
        while planned < 25:
            src, dst = rng.sample(ids, 2)
            try:
                plan = router.plan(src, dst)
            except NoRouteError:
                continue
            planned += 1
            rebuilt = membership.conduits_of(plan.header)
            assert rebuilt == plan.conduits
            assert hash(rebuilt) == hash(plan.conduits)
            assert rebuilt is not plan.conduits

    def test_stats_publishes_cache_gauges(self):
        from repro.obs import REGISTRY

        city = linear_city()
        plan = BuildingRouter(city).plan(1, 6)
        m = ConduitMembership(city)
        m.conduits_of(plan.header)  # miss
        m.conduits_of(plan.header)  # hit
        stats = m.stats()
        assert stats["conduit_cache_hits"] == 1
        assert stats["conduit_cache_misses"] == 1
        assert stats["conduit_cache_size"] == 1
        assert stats["conduit_cache_approx_bytes"] > 0
        assert (
            REGISTRY.gauge("core.conduit_cache.entries").value
            == stats["conduit_cache_size"]
        )
        assert (
            REGISTRY.gauge("core.conduit_cache.approx_bytes").value
            == stats["conduit_cache_approx_bytes"]
        )
