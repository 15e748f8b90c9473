"""Tests for the baseline routing schemes."""

import random

import pytest

from repro.baselines import (
    RoutingOutcome,
    aodv,
    gabriel_graph,
    gpsr,
    greedy_geographic,
    oracle_unicast,
    run_citymesh,
    run_flood,
    run_gossip,
)
from repro.city import Building, City, make_city
from repro.core import BuildingRouter
from repro.geometry import Point, Polygon
from repro.mesh import APGraph, AccessPoint, place_aps


def chain(n=5, spacing=40.0):
    aps = [AccessPoint(i, Point(i * spacing, 0.0), i + 1) for i in range(n)]
    return APGraph(aps, transmission_range=50)


class TestOutcome:
    def test_total(self):
        o = RoutingOutcome("x", True, 10, control_transmissions=5)
        assert o.total_transmissions == 15

    def test_overhead(self):
        o = RoutingOutcome("x", True, 12)
        assert o.overhead_vs(4) == 3.0

    def test_overhead_undefined(self):
        assert RoutingOutcome("x", False, 12).overhead_vs(4) is None
        assert RoutingOutcome("x", True, 12).overhead_vs(0) is None


class TestOracle:
    def test_shortest_path(self):
        g = chain()
        o = oracle_unicast(g, 0, 5)
        assert o.delivered
        assert o.data_transmissions == 4
        assert o.path_hops == 4

    def test_unreachable(self):
        aps = [AccessPoint(0, Point(0, 0), 1), AccessPoint(1, Point(500, 0), 2)]
        g = APGraph(aps, transmission_range=50)
        o = oracle_unicast(g, 0, 2)
        assert not o.delivered


class TestGreedy:
    def test_straight_line_success(self):
        g = chain()
        o = greedy_geographic(g, 0, 5, Point(160, 0))
        assert o.delivered
        assert o.path_hops == 4
        assert o.control_transmissions == 0

    def test_beacon_accounting(self):
        g = chain()
        o = greedy_geographic(g, 0, 5, Point(160, 0), count_beacons=True)
        assert o.control_transmissions == len(g)

    def test_void_failure(self):
        """A dead-end spur: greedy walks towards the destination into a
        local minimum and cannot escape."""
        aps = [
            AccessPoint(0, Point(0, 0), 1),      # source
            AccessPoint(1, Point(40, 0), 2),     # spur tip: closest to dest
            AccessPoint(2, Point(0, 50), 3),     # detour (farther from dest)
            AccessPoint(3, Point(40, 80), 4),    # detour continues
            AccessPoint(4, Point(80, 80), 5),    # connects to dest side
            AccessPoint(5, Point(110, 40), 6),   # destination
        ]
        g = APGraph(aps, transmission_range=50)
        dest = Point(110, 40)
        # AP1 at (40,0) is 70.7 m from dest; its neighbours are AP0
        # (dist 117) only -> stuck.
        o = greedy_geographic(g, 0, 6, dest)
        assert not o.delivered

    def test_unknown_destination_building(self):
        g = chain()
        o = greedy_geographic(g, 0, 99, Point(0, 0))
        assert not o.delivered


class TestGpsr:
    def test_gabriel_subset_of_unit_disk(self):
        city = make_city("gridport", seed=0)
        g = APGraph(place_aps(city, rng=random.Random(0))[:300], transmission_range=50)
        planar = gabriel_graph(g)
        for u, neighbors in planar.items():
            for v in neighbors:
                assert v in g.neighbors(u)

    def test_gabriel_symmetric(self):
        g = chain(6)
        planar = gabriel_graph(g)
        for u, neighbors in planar.items():
            for v in neighbors:
                assert u in planar[v]

    def test_straight_line(self):
        g = chain()
        o = gpsr(g, 0, 5, Point(160, 0))
        assert o.delivered
        assert o.path_hops == 4

    def test_recovers_around_void(self):
        """GPSR's perimeter mode escapes the dead-end that kills greedy."""
        aps = [
            AccessPoint(0, Point(0, 0), 1),
            AccessPoint(1, Point(40, 0), 2),
            AccessPoint(2, Point(0, 50), 3),
            AccessPoint(3, Point(40, 80), 4),
            AccessPoint(4, Point(80, 80), 5),
            AccessPoint(5, Point(110, 40), 6),
        ]
        g = APGraph(aps, transmission_range=50)
        dest = Point(110, 40)
        greedy_result = greedy_geographic(g, 0, 6, dest)
        gpsr_result = gpsr(g, 0, 6, dest)
        assert not greedy_result.delivered
        assert gpsr_result.delivered

    def test_unreachable_terminates(self):
        aps = [
            AccessPoint(0, Point(0, 0), 1),
            AccessPoint(1, Point(40, 0), 2),
            AccessPoint(2, Point(500, 0), 3),
        ]
        g = APGraph(aps, transmission_range=50)
        o = gpsr(g, 0, 3, Point(500, 0))
        assert not o.delivered

    def test_precomputed_planar_reused(self):
        g = chain()
        planar = gabriel_graph(g)
        o = gpsr(g, 0, 5, Point(160, 0), planar=planar)
        assert o.delivered


class TestAodv:
    def test_charges_flood(self):
        g = chain()
        o = aodv(g, 0, 5)
        assert o.delivered
        assert o.data_transmissions == 4
        # RREQ flood = component size (5) + RREP unicast (4 hops).
        assert o.control_transmissions == 9

    def test_unreachable_still_floods(self):
        aps = [
            AccessPoint(0, Point(0, 0), 1),
            AccessPoint(1, Point(40, 0), 2),
            AccessPoint(2, Point(500, 0), 3),
        ]
        g = APGraph(aps, transmission_range=50)
        o = aodv(g, 0, 3)
        assert not o.delivered
        assert o.control_transmissions == 2


class TestRunners:
    @pytest.fixture(scope="class")
    def setup(self):
        city = make_city("gridport", seed=2)
        aps = place_aps(city, rng=random.Random(2))
        graph = APGraph(aps)
        router = BuildingRouter(city)
        return city, graph, router

    def test_run_citymesh(self, setup):
        city, graph, router = setup
        ids = [b.id for b in city.buildings]
        o = run_citymesh(city, graph, router, 0, ids[-1], random.Random(0))
        assert o.scheme == "citymesh"
        assert o.control_transmissions == 0

    def test_run_citymesh_no_route(self):
        city = City(
            "split",
            [
                Building(1, Polygon.rectangle(0, 0, 20, 20)),
                Building(2, Polygon.rectangle(900, 0, 920, 20)),
            ],
        )
        aps = [AccessPoint(0, Point(10, 10), 1), AccessPoint(1, Point(910, 10), 2)]
        graph = APGraph(aps)
        router = BuildingRouter(city)
        o = run_citymesh(city, graph, router, 0, 2, random.Random(0))
        assert not o.delivered
        assert o.data_transmissions == 0

    def test_run_flood(self, setup):
        _, graph, __ = setup
        dest = graph.aps[-1].building_id
        o = run_flood(graph, 0, dest, random.Random(0))
        assert o.scheme == "flood"
        assert o.delivered
        # Flooding transmits once per AP in the component.
        labels, sizes = graph.component_ids()
        assert o.data_transmissions == sizes[labels[0]]

    def test_run_gossip(self, setup):
        _, graph, __ = setup
        dest = graph.aps[-1].building_id
        o = run_gossip(graph, 0, dest, p=0.8, rng=random.Random(0))
        assert o.scheme == "gossip-0.80"
        flood = run_flood(graph, 0, dest, random.Random(0))
        assert o.data_transmissions < flood.data_transmissions
