"""Tests for the building graph and route planner."""

import pytest

from repro.buildgraph import BuildingGraph, NoRouteError, plan_building_route
from repro.city import Building, City, make_city, metro_grid
from repro.geometry import Polygon

from .reference import reference_dijkstra


def row_city(n=5, size=30.0, gap=15.0):
    buildings = [
        Building(i + 1, Polygon.rectangle(i * (size + gap), 0, i * (size + gap) + size, size))
        for i in range(n)
    ]
    return City("row", buildings)


class TestBuildingGraphConstruction:
    def test_validation(self):
        city = row_city()
        with pytest.raises(ValueError):
            BuildingGraph(city, transmission_range=0)
        with pytest.raises(ValueError):
            BuildingGraph(city, weight_exponent=0)
        with pytest.raises(ValueError):
            BuildingGraph(city, connectivity_margin=-1)

    def test_neighbors_within_range(self):
        g = BuildingGraph(row_city(), transmission_range=50)
        # Gap between footprints is 15 m; adjacent buildings connect.
        assert 2 in g.neighbors(1)
        # Buildings two apart: footprint gap is 15+30+15=60 m > 50.
        assert 3 not in g.neighbors(1)

    def test_empty_city(self):
        g = BuildingGraph(City("empty", []))
        assert g.node_count() == 0
        assert g.edge_count() == 0
        assert g.mean_degree() == 0

    def test_contains(self):
        g = BuildingGraph(row_city())
        assert 1 in g
        assert 99 not in g

    def test_edge_count_row(self):
        g = BuildingGraph(row_city(5), transmission_range=50)
        assert g.edge_count() == 4

    def test_degrees(self):
        g = BuildingGraph(row_city(5), transmission_range=50)
        assert g.degree(1) == 1
        assert g.degree(3) == 2
        assert g.mean_degree() == pytest.approx(8 / 5)

    def test_weights_are_cubed_distance(self):
        g = BuildingGraph(row_city(), transmission_range=50, weight_exponent=3.0)
        d = g.centroid(1).distance_to(g.centroid(2))
        assert g.neighbors(1)[2] == pytest.approx(d**3)

    def test_weight_exponent_configurable(self):
        g1 = BuildingGraph(row_city(), weight_exponent=1.0)
        g3 = BuildingGraph(row_city(), weight_exponent=3.0)
        d = g1.centroid(1).distance_to(g1.centroid(2))
        assert g1.neighbors(1)[2] == pytest.approx(d)
        assert g3.neighbors(1)[2] == pytest.approx(d**3)

    def test_connectivity_margin_prunes_edges(self):
        relaxed = BuildingGraph(row_city(), transmission_range=50)
        strict = BuildingGraph(row_city(), transmission_range=50, connectivity_margin=40)
        assert strict.edge_count() < relaxed.edge_count()

    def test_min_expected_aps_filters_small_buildings(self):
        tiny = Building(99, Polygon.rectangle(200, 200, 205, 205))  # 25 m2
        city = City("mix", list(row_city().buildings) + [tiny])
        g = BuildingGraph(city, min_expected_aps=0.5, ap_density=1 / 200)
        assert 99 not in g
        assert 1 in g  # 900 m2 -> expected 4.5 APs

    def test_symmetry(self):
        g = BuildingGraph(make_city("oldtown", seed=0))
        for b in list(g._adjacency)[:50]:
            for n, w in g.neighbors(b).items():
                assert g.neighbors(n)[b] == w


class TestPlanner:
    def test_simple_route(self):
        g = BuildingGraph(row_city(5))
        assert plan_building_route(g, 1, 5) == [1, 2, 3, 4, 5]

    def test_same_endpoint(self):
        g = BuildingGraph(row_city())
        assert plan_building_route(g, 2, 2) == [2]

    def test_unknown_endpoint(self):
        g = BuildingGraph(row_city())
        with pytest.raises(KeyError):
            plan_building_route(g, 1, 42)
        with pytest.raises(KeyError):
            plan_building_route(g, 42, 1)

    def test_no_route(self):
        buildings = [
            Building(1, Polygon.rectangle(0, 0, 10, 10)),
            Building(2, Polygon.rectangle(500, 0, 510, 10)),
        ]
        g = BuildingGraph(City("gap", buildings))
        with pytest.raises(NoRouteError):
            plan_building_route(g, 1, 2)

    def test_route_is_connected_in_graph(self):
        g = BuildingGraph(make_city("gridport", seed=0))
        ids = sorted(b.id for b in make_city("gridport", seed=0).buildings)
        route = plan_building_route(g, ids[0], ids[-1])
        for a, b in zip(route, route[1:]):
            assert b in g.neighbors(a)

    def test_cubed_weights_prefer_short_hops(self):
        """With cubed weights, a route of short hops beats a long hop.

        Construct a triangle: direct edge 1->3 is one 90 m hop (gap 30m
        apart within 50m? no) ... use three buildings where 1-3 are
        barely within range but 2 provides two short hops.
        """
        buildings = [
            Building(1, Polygon.rectangle(0, 0, 30, 30)),
            Building(2, Polygon.rectangle(35, 40, 65, 70)),   # offset relay
            Building(3, Polygon.rectangle(70, 0, 100, 30)),
        ]
        city = City("tri", buildings)
        g1 = BuildingGraph(city, transmission_range=50, weight_exponent=1.0)
        g3 = BuildingGraph(city, transmission_range=50, weight_exponent=3.0)
        # Direct edge exists in both graphs (footprint gap 40 m < 50 m).
        assert 3 in g1.neighbors(1)
        route_linear = plan_building_route(g1, 1, 3)
        route_cubed = plan_building_route(g3, 1, 3)
        assert route_linear == [1, 3]
        assert route_cubed == [1, 2, 3]

    def test_route_optimal_weight(self):
        """The planned route costs what the reference Dijkstra's does."""
        city = make_city("oldtown", seed=1)
        g = BuildingGraph(city)
        ids = [b.id for b in city.buildings]
        src, dst = ids[0], ids[len(ids) // 2]
        _, expected = reference_dijkstra(g.neighbors, src, dst)
        route = plan_building_route(g, src, dst)
        actual = sum(g.neighbors(a)[b] for a, b in zip(route, route[1:]))
        assert expected < float("inf")
        assert actual == pytest.approx(expected, rel=1e-9)

    @pytest.mark.parametrize(
        "exponent,src,dst,expected",
        [(3.0, 40, 13, 550_623), (1.0, 60, 2, 393.642)],
    )
    def test_cheap_explicit_link_keeps_a_star_exact(self, exponent, src, dst, expected):
        """A link weighted far below its centroid distance (once the
        defect class of a straight-line A* heuristic) is used like any
        other edge: the route is the reference Dijkstra's."""
        g = BuildingGraph(metro_grid(seed=0, cols=6, rows=11), weight_exponent=exponent)
        g.add_link(1, 16, 1.0)
        route = g.plan(src, dst)
        reference, _ = reference_dijkstra(g.neighbors, src, dst)
        assert route == reference
        cost = sum(g.neighbors(a)[b] for a, b in zip(route, route[1:]))
        assert cost == pytest.approx(expected, rel=1e-5)


def test_stats_publishes_route_cache_gauges():
    from repro.obs import REGISTRY

    city = make_city("gridport", seed=0)
    g = BuildingGraph(city)
    ids = [b.id for b in city.buildings]
    g.plan(ids[0], ids[-1])
    stats = g.stats()
    assert stats["route_cache_size"] >= 1
    assert stats["route_cache_approx_bytes"] > 0
    assert (
        REGISTRY.gauge("buildgraph.route_cache.entries").value
        == stats["route_cache_size"]
    )
    assert (
        REGISTRY.gauge("buildgraph.route_cache.approx_bytes").value
        == stats["route_cache_approx_bytes"]
    )
