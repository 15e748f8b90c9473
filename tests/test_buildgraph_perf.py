"""Performance-core tests for repro.buildgraph: planner optimality
against a brute-force reference, route-cache semantics (bounded LRU,
version keying, invalidation on mutation), batched many-to-many
planning counters, and island (NoRouteError) behaviour."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import repro
from repro.buildgraph import (
    BuildingGraph,
    LRUCache,
    NoRouteError,
    plan_building_route,
)
from repro.city import Building, City
from repro.core import BuildingRouter, ConduitMembership
from repro.geometry import Polygon


def grid_city(cols=5, rows=5, size=30.0, gap=15.0, name="grid"):
    """A cols x rows lattice of square buildings; adjacent gaps 15 m."""
    buildings = []
    pitch = size + gap
    for j in range(rows):
        for i in range(cols):
            x0, y0 = i * pitch, j * pitch
            buildings.append(
                Building(j * cols + i + 1, Polygon.rectangle(x0, y0, x0 + size, y0 + size))
            )
    return City(name, buildings)


def random_city(seed, n=14, span=300.0, name="rand"):
    """Scatter n square buildings; sizes/positions vary with the seed."""
    rng = random.Random(seed)
    buildings = []
    for i in range(n):
        size = rng.uniform(8.0, 40.0)
        x0 = rng.uniform(0.0, span)
        y0 = rng.uniform(0.0, span)
        buildings.append(Building(i + 1, Polygon.rectangle(x0, y0, x0 + size, y0 + size)))
    return City(name, buildings)


def reference_cost(graph, src, dst):
    """Brute-force Bellman-Ford shortest-path cost (no heap, no scipy)."""
    nodes = list(graph._adjacency)
    dist = {b: float("inf") for b in nodes}
    dist[src] = 0.0
    for _ in range(len(nodes)):
        changed = False
        for u in nodes:
            du = dist[u]
            if du == float("inf"):
                continue
            for v, w in graph.neighbors(u).items():
                if du + w < dist[v]:
                    dist[v] = du + w
                    changed = True
        if not changed:
            break
    return dist[dst]


def route_cost(graph, route):
    return sum(graph.neighbors(a)[b] for a, b in zip(route, route[1:]))


class TestPlannerOptimality:
    @given(
        seed=st.integers(min_value=0, max_value=10_000),
        exponent=st.sampled_from([1.0, 2.0, 3.0]),
    )
    @settings(max_examples=60, deadline=None)
    def test_astar_matches_brute_force(self, seed, exponent):
        """The planner's route cost equals the brute-force reference."""
        city = random_city(seed)
        g = BuildingGraph(city, weight_exponent=exponent)
        ids = sorted(g._adjacency)
        rng = random.Random(seed + 1)
        src, dst = rng.sample(ids, 2)
        expected = reference_cost(g, src, dst)
        try:
            route = g.plan(src, dst)
        except NoRouteError:
            assert expected == float("inf")
            return
        assert expected < float("inf")
        assert route[0] == src and route[-1] == dst
        assert route_cost(g, route) == pytest.approx(expected, rel=1e-9)

    @given(seed=st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=30, deadline=None)
    def test_tie_stability(self, seed):
        """The same (graph, pair) always yields the identical route."""
        pair_rng = random.Random(seed + 1)
        g1 = BuildingGraph(random_city(seed))
        g2 = BuildingGraph(random_city(seed))
        ids = sorted(g1._adjacency)
        src, dst = pair_rng.sample(ids, 2)
        try:
            r1 = g1.plan(src, dst)
        except NoRouteError:
            with pytest.raises(NoRouteError):
                g2.plan(src, dst)
            return
        assert g1.plan(src, dst) == r1  # warm replan
        g1.clear_route_cache()
        assert g1.plan(src, dst) == r1  # cold replan, same graph
        assert g2.plan(src, dst) == r1  # independent identical graph


class TestRouteCache:
    def test_warm_plan_is_a_cache_hit(self):
        g = BuildingGraph(grid_city())
        g.reset_stats()
        first = g.plan(1, 25)
        assert g.stats()["route_cache_misses"] == 1
        second = g.plan(1, 25)
        assert second == first
        assert second is not first  # callers get their own list
        s = g.stats()
        assert s["route_cache_hits"] == 1
        # The hit ran no search at all.
        assert s["sssp_runs"] == 1

    def test_no_route_is_cached_too(self):
        city = City(
            "islands",
            [
                Building(1, Polygon.rectangle(0, 0, 30, 30)),
                Building(2, Polygon.rectangle(1000, 0, 1030, 30)),
            ],
        )
        g = BuildingGraph(city)
        g.reset_stats()
        with pytest.raises(NoRouteError):
            g.plan(1, 2)
        with pytest.raises(NoRouteError):
            g.plan(1, 2)
        s = g.stats()
        assert s["route_cache_hits"] == 1
        assert s["sssp_runs"] == 1

    def test_mutation_invalidates_cache(self):
        """Removing a relay building must not serve the stale route."""
        city = grid_city(cols=5, rows=1)  # a row: 1-2-3-4-5
        g = BuildingGraph(city, transmission_range=50)
        route = g.plan(1, 5)
        assert route == [1, 2, 3, 4, 5]
        v0 = g.version
        g.remove_building(3)
        assert g.version == v0 + 1
        assert 3 not in g
        with pytest.raises(NoRouteError):
            g.plan(1, 5)
        with pytest.raises(KeyError):
            g.plan(3, 5)

    def test_add_building_reconnects(self):
        city = grid_city(cols=5, rows=1)
        g = BuildingGraph(city, transmission_range=50)
        removed = city.building(3)
        g.remove_building(3)
        with pytest.raises(NoRouteError):
            g.plan(1, 5)
        g.add_building(removed)
        assert g.plan(1, 5) == [1, 2, 3, 4, 5]

    def test_add_duplicate_raises(self):
        city = grid_city(cols=3, rows=1)
        g = BuildingGraph(city)
        with pytest.raises(ValueError):
            g.add_building(city.building(2))

    def test_cache_is_bounded(self):
        g = BuildingGraph(grid_city(), route_cache_size=8)
        ids = sorted(g._adjacency)
        for dst in ids[1:]:
            g.plan(ids[0], dst)
        assert g.stats()["route_cache_size"] <= 8


class TestBatchMutation:
    def test_patch_bumps_version_exactly_once(self):
        """A whole epoch's casualties cost one cache invalidation."""
        g = BuildingGraph(grid_city(cols=5, rows=5), transmission_range=50)
        v0 = g.version
        assert g.patch(remove=[7, 8, 9], add_links=[(1, 25)])
        assert g.version == v0 + 1
        for removed in (7, 8, 9):
            assert removed not in g

    def test_empty_patch_is_a_no_op(self):
        g = BuildingGraph(grid_city(cols=3, rows=1))
        v0 = g.version
        assert not g.patch()
        assert g.version == v0

    def test_patch_invalidates_routes(self):
        city = grid_city(cols=5, rows=1)
        g = BuildingGraph(city, transmission_range=50)
        assert g.plan(1, 5) == [1, 2, 3, 4, 5]
        g.patch(remove=[3])
        with pytest.raises(NoRouteError):
            g.plan(1, 5)

    def test_add_link_routes_across_gap(self):
        """An announced link carries routes the map would not predict."""
        city = grid_city(cols=5, rows=1)
        g = BuildingGraph(city, transmission_range=50)
        g.patch(remove=[3])
        with pytest.raises(NoRouteError):
            g.plan(1, 5)
        g.add_link(2, 4)
        assert g.plan(1, 5) == [1, 2, 4, 5]
        assert g.neighbors(2)[4] == pytest.approx(
            g.centroid(2).distance_to(g.centroid(4)) ** g.weight_exponent
        )

    def test_add_link_validation(self):
        g = BuildingGraph(grid_city(cols=3, rows=1))
        with pytest.raises(ValueError):
            g.add_link(1, 1)
        with pytest.raises(KeyError):
            g.add_link(1, 999)
        with pytest.raises(ValueError):
            g.add_link(1, 2, weight=0.0)

    def test_patch_unknown_building_still_bumps(self):
        """A failed patch must not leave stale cache entries behind."""
        g = BuildingGraph(grid_city(cols=3, rows=1), transmission_range=50)
        g.plan(1, 3)
        v0 = g.version
        with pytest.raises(KeyError):
            g.patch(remove=[2, 999])
        assert g.version == v0 + 1
        with pytest.raises(NoRouteError):
            g.plan(1, 3)


class TestBatchedPlanning:
    def test_shares_one_sssp_per_source(self):
        """100 pairs over 10 sources cost at most 10 full expansions."""
        g = BuildingGraph(grid_city(cols=10, rows=10))
        ids = sorted(g._adjacency)
        rng = random.Random(0)
        sources = rng.sample(ids, 10)
        pairs = [(s, d) for s in sources for d in rng.sample(ids, 10)]
        assert len(pairs) == 100
        g.reset_stats()
        routes = g.plan_routes(pairs)
        s = g.stats()
        assert s["sssp_runs"] <= 10
        # Every returned route is optimal (lattice is connected).
        for (src, dst), route in zip(pairs, routes):
            assert route is not None
            assert route[0] == src and route[-1] == dst
            assert route_cost(g, route) == pytest.approx(
                reference_cost(g, src, dst), rel=1e-9
            )

    def test_batch_warms_the_point_cache(self):
        g = BuildingGraph(grid_city())
        pairs = [(1, 25), (1, 13), (5, 21)]
        g.plan_routes(pairs)
        g.reset_stats()
        for src, dst in pairs:
            g.plan(src, dst)
        s = g.stats()
        assert s["route_cache_hits"] == 3
        assert s["nodes_expanded"] == 0

    def test_unknown_and_unroutable_pairs_become_none(self):
        city = City(
            "islands",
            [
                Building(1, Polygon.rectangle(0, 0, 30, 30)),
                Building(2, Polygon.rectangle(40, 0, 70, 30)),
                Building(3, Polygon.rectangle(1000, 0, 1030, 30)),
            ],
        )
        g = BuildingGraph(city)
        routes = g.plan_routes([(1, 2), (1, 3), (1, 99), (99, 1)])
        assert routes[0] == [1, 2]
        assert routes[1] is None
        assert routes[2] is None
        assert routes[3] is None

    def test_router_plan_batch(self):
        city = grid_city()
        router = BuildingRouter(city)
        pairs = [(1, 25), (1, 13), (2, 24), (1, 99)]
        plans = router.plan_batch(pairs)
        assert set(plans) == {(1, 25), (1, 13), (2, 24)}
        for (src, dst), plan in plans.items():
            assert plan.route[0] == src and plan.route[-1] == dst


class TestIslands:
    def river_city(self):
        """Two dense banks split by a 400 m 'river' of empty space."""
        west = [
            Building(i + 1, Polygon.rectangle(i * 45.0, 0, i * 45.0 + 30, 30))
            for i in range(4)
        ]
        east = [
            Building(100 + i, Polygon.rectangle(600 + i * 45.0, 0, 600 + i * 45.0 + 30, 30))
            for i in range(4)
        ]
        return City("riversplit", west + east)

    def test_cross_river_raises(self):
        g = BuildingGraph(self.river_city())
        assert g.plan(1, 4) == [1, 2, 3, 4]
        assert g.plan(100, 103)[0] == 100
        with pytest.raises(NoRouteError):
            g.plan(1, 103)
        with pytest.raises(NoRouteError):
            plan_building_route(g, 4, 100)

    def test_batch_across_river(self):
        g = BuildingGraph(self.river_city())
        routes = g.plan_routes([(1, 4), (1, 103), (100, 103)])
        assert routes[0] is not None
        assert routes[1] is None
        assert routes[2] is not None


class TestLRUCache:
    def test_validation(self):
        with pytest.raises(ValueError):
            LRUCache(maxsize=0)

    def test_eviction_order(self):
        c = LRUCache(maxsize=2)
        c.put("a", 1)
        c.put("b", 2)
        assert c.get("a") == 1  # refresh "a"; "b" is now LRU
        c.put("c", 3)
        assert "b" not in c
        assert c.get("a") == 1
        assert c.get("c") == 3
        assert c.evictions == 1

    def test_counters(self):
        c = LRUCache(maxsize=4)
        assert c.get("missing") is None
        c.put("k", "v")
        assert c.get("k") == "v"
        assert c.counters()["hits"] == 1
        assert c.counters()["misses"] == 1
        c.reset_counters()
        assert c.counters()["hits"] == 0

    def test_put_refreshes(self):
        c = LRUCache(maxsize=2)
        c.put("a", 1)
        c.put("b", 2)
        c.put("a", 10)  # refresh + overwrite; "b" is LRU
        c.put("c", 3)
        assert "b" not in c
        assert c.get("a") == 10

    def test_clear_preserves_counters(self):
        """clear() drops entries but keeps the accounting — counters
        are monotone until reset_counters() is called."""
        c = LRUCache(maxsize=2)
        c.put("a", 1)
        c.put("b", 2)
        c.put("c", 3)  # evicts "a"
        c.get("b")
        c.get("zzz")
        before = c.counters()
        c.clear()
        after = c.counters()
        assert len(c) == 0
        assert after["size"] == 0
        assert (after["hits"], after["misses"], after["evictions"]) == (
            before["hits"],
            before["misses"],
            before["evictions"],
        ) == (1, 1, 1)

    def test_reset_counters_zeroes_all_three(self):
        c = LRUCache(maxsize=1)
        c.put("a", 1)
        c.put("b", 2)  # evicts "a"
        c.get("b")
        c.get("a")  # miss
        assert c.counters()["evictions"] == 1
        c.reset_counters()
        snap = c.counters()
        assert (snap["hits"], snap["misses"], snap["evictions"]) == (0, 0, 0)
        assert snap["size"] == 1  # entries untouched

    def test_counters_consistent_under_eviction_churn(self):
        """Every get is a hit or a miss; evictions never exceed puts of
        novel keys minus capacity; size stays bounded."""
        c = LRUCache(maxsize=8)
        gets = 0
        novel_puts = 0
        for i in range(200):
            key = i % 24  # 24 distinct keys through an 8-slot cache
            if c.get(key) is None:
                c.put(key, i)
                novel_puts += 1
            gets += 1
        snap = c.counters()
        assert snap["hits"] + snap["misses"] == gets
        assert snap["evictions"] == novel_puts - snap["size"]
        assert snap["size"] <= snap["maxsize"] == 8


class TestConduitMembershipBounded:
    def test_cache_is_bounded(self):
        city = grid_city(cols=8, rows=1)
        router = BuildingRouter(city)
        m = ConduitMembership(city, cache_size=3)
        for dst in range(2, 9):
            plan = router.plan(1, dst)
            m.conduits_of(plan.header)
        assert len(m._cache) <= 3

    def test_identity_on_hit(self):
        city = grid_city(cols=6, rows=1)
        plan = BuildingRouter(city).plan(1, 6)
        m = ConduitMembership(city)
        assert m.conduits_of(plan.header) is m.conduits_of(plan.header)


class TestTopLevelExports:
    def test_reexports(self):
        assert repro.BuildingGraph is BuildingGraph
        assert repro.NoRouteError is NoRouteError
        assert repro.plan_building_route is plan_building_route


class TestSpatialHashBuild:
    def test_build_examines_far_fewer_than_all_pairs(self):
        g = BuildingGraph(grid_city(cols=20, rows=20))
        n = g.node_count()
        checked = g.stats()["build_candidates_checked"]
        assert n == 400
        # All-pairs would be n*(n-1)/2 = 79800; the spatial hash keeps
        # the candidate set to the local neighbourhood only.
        assert checked < n * (n - 1) / 2 / 10

    def test_stats_shape(self):
        g = BuildingGraph(grid_city())
        s = g.stats()
        for key in (
            "builds",
            "build_time_s",
            "build_candidates_checked",
            "nodes_expanded",
            "sssp_runs",
            "route_cache_hits",
            "route_cache_misses",
            "nodes",
            "edges",
            "version",
        ):
            assert key in s
