"""Correctness tests for the metro hierarchy (repro.buildgraph.hierarchy).

The contract under test: a :class:`MetroRouter` planning through
region-contracted overlays returns the flat planner's routes (same
buildings in the same order, hence the same cost), partitioning is
deterministic under a seed, and mutations rebuild only the touched
regions' overlays.
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from repro.buildgraph import (
    BuildingGraph,
    MetroRouter,
    NoRouteError,
    attach_hierarchy,
    partition_regions,
)
from repro.city import Building, make_city
from repro.city.generators import metro_grid
from repro.core import BuildingRouter
from repro.geometry import Polygon
from repro.obs import REGISTRY

from .reference import reference_dijkstra

# ~5k buildings: large enough for a real multi-region partition,
# small enough to flat-plan a reference batch in seconds.
COLS = ROWS = 71
N = COLS * ROWS
REGION_SIZE = 600


def _route_cost(graph, route):
    """Sum of edge weights along a route (asserts every hop exists)."""
    total = 0.0
    for a, b in zip(route, route[1:]):
        total += graph.neighbors(a)[b]
    return total


def _regions_touched(router, route):
    return {router.partition.region_of[b] for b in route}


@pytest.fixture(scope="module")
def metro_city():
    return metro_grid(seed=3, cols=COLS, rows=ROWS, name="metro-5k")


@pytest.fixture(scope="module")
def metro_graph(metro_city):
    graph = BuildingGraph(metro_city)
    attach_hierarchy(graph, target_region_size=REGION_SIZE, seed=0)
    return graph


@pytest.fixture(scope="module")
def flat_graph(metro_city):
    """An independent flat-planner reference over the same city."""
    return BuildingGraph(metro_city)


def far_pairs(count, seed=11):
    """Corner-to-corner-ish pairs: the routes that cross many regions."""
    rng = random.Random(seed)
    low = range(1, COLS + 1)
    high = range(N - COLS + 1, N + 1)
    return [(rng.choice(low), rng.choice(high)) for _ in range(count)]


# ----------------------------------------------------------------------
# Partition
# ----------------------------------------------------------------------
def test_partition_covers_every_building(metro_graph):
    partition = metro_graph.hierarchy.partition
    seen = set()
    for region in partition.regions:
        assert not seen & set(region.members), "regions overlap"
        seen.update(region.members)
    assert seen == set(metro_graph)
    assert len(partition.regions) >= 4
    # region_of is the inverse mapping
    for region in partition.regions:
        assert all(partition.region_of[b] == region.index for b in region.members)


def test_partition_deterministic(metro_graph, flat_graph):
    a = partition_regions(flat_graph, target_region_size=REGION_SIZE, seed=0)
    b = partition_regions(flat_graph, target_region_size=REGION_SIZE, seed=0)
    assert [r.members for r in a.regions] == [r.members for r in b.regions]
    # ... and matches the partition the module fixture built.
    ours = metro_graph.hierarchy.partition
    assert [r.members for r in a.regions] == [r.members for r in ours.regions]


# ----------------------------------------------------------------------
# Cost equivalence with the flat planner
# ----------------------------------------------------------------------
def test_cross_region_routes_match_flat_cost(metro_graph, flat_graph):
    router = metro_graph.hierarchy
    pairs = far_pairs(40)
    multi_region = 0
    for src, dst in pairs:
        hier = router.plan(src, dst)
        flat = flat_graph.plan(src, dst)
        assert hier[0] == src and hier[-1] == dst
        h_cost = _route_cost(metro_graph, hier)  # validates every hop
        f_cost = _route_cost(flat_graph, flat)
        assert math.isclose(h_cost, f_cost, rel_tol=1e-9), (src, dst)
        assert hier == flat, (src, dst)
        if len(_regions_touched(router, hier)) >= 2:
            multi_region += 1
    # The far pairs exist to exercise the overlay: nearly all must
    # cross regions, and corner-to-corner ones span several.
    assert multi_region >= len(pairs) * 3 // 4
    assert any(
        len(_regions_touched(router, router.plan(s, d))) >= 3
        for s, d in pairs
    )


def test_random_pairs_match_flat_cost(metro_graph, flat_graph):
    router = metro_graph.hierarchy
    rng = random.Random(5)
    for _ in range(60):
        src, dst = rng.sample(range(1, N + 1), 2)
        hier = router.plan(src, dst)
        flat = flat_graph.plan(src, dst)
        h_cost = _route_cost(metro_graph, hier)
        f_cost = _route_cost(flat_graph, flat)
        assert math.isclose(h_cost, f_cost, rel_tol=1e-9), (src, dst)
        assert hier == flat, (src, dst)


def test_same_region_and_trivial_plans(metro_graph):
    router = metro_graph.hierarchy
    region = router.partition.regions[0]
    src, dst = region.members[0], region.members[-1]
    route = router.plan(src, dst)
    assert route[0] == src and route[-1] == dst
    assert router.plan(src, src) == [src]
    with pytest.raises(KeyError):
        router.plan(src, N + 999)


def test_batched_plan_routes_and_router_dispatch(metro_city, metro_graph):
    router = metro_graph.hierarchy
    pairs = far_pairs(6, seed=23) + [(1, N + 999)]
    results = router.plan_routes(pairs)
    assert results[-1] is None  # unknown id, flat-planner semantics
    assert all(r is not None for r in results[:-1])
    # BuildingRouter dispatches through the attached hierarchy.
    core = BuildingRouter(metro_city, graph=metro_graph)
    assert core._planner() is router
    plan = core.plan(*pairs[0])
    assert plan.route[0] == pairs[0][0] and plan.route[-1] == pairs[0][1]


def test_routes_do_not_depend_on_query_history(metro_city):
    """Leg expansion reuses a cached reversed ``(b, a)`` leg, and the
    sparse overlay's chains lean on that reuse: the same pairs planned
    on fresh routers in another order, or after every reversed pair,
    must give the same routes."""
    graph = BuildingGraph(metro_city)
    partition = partition_regions(graph, target_region_size=REGION_SIZE, seed=0)
    rng = random.Random(31)
    pairs = far_pairs(30, seed=29) + [
        tuple(rng.sample(range(1, N + 1), 2)) for _ in range(30)
    ]

    def routes(order, warm=()):
        router = MetroRouter(graph, partition)
        for src, dst in warm:
            _plan_or_none(router, src, dst)
        hits = router.stats()["expansion_cache_hits"]
        planned = {(s, d): _plan_or_none(router, s, d) for s, d in order}
        return planned, router.stats()["expansion_cache_hits"] - hits

    forward, _ = routes(pairs)
    assert all(route is not None for route in forward.values())
    backward, _ = routes(pairs[::-1])
    assert backward == forward
    warmed, hits = routes(pairs, warm=[(d, s) for s, d in pairs])
    assert warmed == forward
    assert hits > 0  # the reversed legs were reused


def test_batch_repeats_hit_the_route_shards(metro_graph):
    """A traffic mix of many requests over few popular pairs: every
    repeat is a route-shard hit."""
    router = metro_graph.hierarchy
    rng = random.Random(9)
    unique = [tuple(rng.sample(range(1, N + 1), 2)) for _ in range(30)]
    requests = [unique[rng.randrange(len(unique))] for _ in range(300)]
    hits_before = router.stats()["route_cache_hits"]
    results = router.plan_routes(requests)
    assert all(r is not None for r in results)
    hits = router.stats()["route_cache_hits"] - hits_before
    assert hits >= len(requests) - len(unique)


# ----------------------------------------------------------------------
# Invalidation
# ----------------------------------------------------------------------
@pytest.fixture()
def small_pair():
    """A fresh, mutable ~1.6k-building world with hierarchy + flat ref."""
    city = metro_grid(seed=7, cols=40, rows=40, name="metro-1k6")
    graph = BuildingGraph(city)
    attach_hierarchy(graph, target_region_size=220, seed=0)
    graph.hierarchy.build_overlays()
    return graph, BuildingGraph(city)


def test_patch_rebuilds_only_touched_regions(small_pair):
    graph, flat = small_pair
    router = graph.hierarchy
    n_regions = len(router.partition)
    assert n_regions >= 4
    # Demolish a handful of buildings from one region's interior.
    region = router.partition.regions[0]
    doomed = list(region.members[8:12])
    graph.patch(remove=doomed)
    flat.patch(remove=doomed)
    dirty = set(router._dirty)
    assert region.index in dirty
    assert len(dirty) < n_regions  # not a metro-wide rebuild
    before = router.stats()["region_rebuilds"]
    router.build_overlays()
    rebuilt = router.stats()["region_rebuilds"] - before
    assert rebuilt == len(dirty)
    # Routes over the patched graph still match the flat planner.
    rng = random.Random(2)
    alive = sorted(set(graph))
    for _ in range(25):
        src, dst = rng.sample(alive, 2)
        hier = router.plan(src, dst)
        reference = flat.plan(src, dst)
        h_cost = _route_cost(graph, hier)
        f_cost = _route_cost(flat, reference)
        assert math.isclose(h_cost, f_cost, rel_tol=1e-9), (src, dst)
        assert hier == reference, (src, dst)


def test_add_link_and_building_invalidate(small_pair):
    graph, flat = small_pair
    router = graph.hierarchy
    # A long-range announced link (bridge infrastructure).
    a, b = 1, 1600
    graph.add_link(a, b, weight=5.0)
    flat.add_link(a, b, weight=5.0)
    assert router.partition.region_of[a] in router._dirty
    route = router.plan(a, b)
    assert route == [a, b]
    assert flat.plan(a, b) == [a, b]
    # A new building joins its nearest region and is routable.
    new = Building(9001, Polygon.rectangle(200.0, 200.0, 230.0, 230.0))
    graph.add_building(new)
    flat.add_building(new)
    assert router.partition.region_of[9001] is not None
    h_cost = _route_cost(graph, router.plan(9001, 800))
    f_cost = _route_cost(flat, flat.plan(9001, 800))
    assert math.isclose(h_cost, f_cost, rel_tol=1e-9)


def test_disconnected_islands_raise_no_route(small_pair):
    graph, flat = small_pair
    router = graph.hierarchy
    # Sever the grid down the middle: drop three full columns so no
    # predicted edge spans the cut (jittered pitch ~45 m, threshold
    # well below 3 * 45 m).
    cut_cols = (19, 20, 21)
    doomed = [j * 40 + i + 1 for j in range(40) for i in cut_cols]
    graph.patch(remove=doomed)
    flat.patch(remove=doomed)
    with pytest.raises(NoRouteError):
        router.plan(1, 40)
    # The negative result is cached per shard; a repeat still raises.
    with pytest.raises(NoRouteError):
        router.plan(1, 40)
    with pytest.raises(NoRouteError):
        flat.plan(1, 40)


def _plan_or_none(planner, src, dst):
    try:
        return planner.plan(src, dst)
    except NoRouteError:
        return None


@pytest.mark.parametrize("name, region_size", [("capitolia", 60), ("riverton", 80)])
def test_cities_with_borderless_regions_match_flat(name, region_size):
    """Real cities whose partitions leave whole regions without a border
    (capitolia 2 of 5, riverton 1 of 3): such a region reaches nothing
    outside itself, and its inner pairs route only over ``S→T``."""
    graph = BuildingGraph(make_city(name, seed=0))
    router = attach_hierarchy(graph, target_region_size=region_size, seed=0)
    router.build_overlays()
    rng = random.Random(17)
    ids = sorted(graph)
    for _ in range(300):
        src, dst = rng.sample(ids, 2)
        assert _plan_or_none(router, src, dst) == _plan_or_none(graph, src, dst), (
            src, dst,
        )
    borderless = [
        router.partition.regions[row["region"]]
        for row in router.shard_stats()
        if row["borders"] == 0
    ]
    assert borderless
    src, *others = borderless[0].members
    routed = 0
    for dst in others:
        hier = _plan_or_none(router, src, dst)
        assert hier == _plan_or_none(graph, src, dst), (src, dst)
        routed += hier is not None
    assert routed
    assert router.plan(src, src) == [src]


@settings(max_examples=20, deadline=None)
@given(
    cols=st.integers(6, 40),
    rows=st.integers(6, 40),
    city_seed=st.integers(0, 2**16),
    regions=st.integers(3, 6),
    steps=st.lists(
        st.tuples(
            st.sampled_from(["remove", "add_link"]),
            st.integers(0, 2**16),
            st.integers(0, 2**16),
            # A predicted hop weighs ~45**3 ≈ 9e4: cheap links get used.
            st.floats(1.0, 1e5),
        ),
        max_size=3,
    ),
    probe=st.integers(0, 2**16),
)
def test_routes_match_flat_after_random_mutations(
    cols, rows, city_seed, regions, steps, probe
):
    """Every mutation rebuilds the global overlay CSR; with every cache
    warm from the previous step, routes must still be the flat
    planner's.  The reference is plain Dijkstra on the same graph, with
    announced links as cheap as weight 1.0."""
    graph = BuildingGraph(
        metro_grid(seed=city_seed, cols=cols, rows=rows, name="metro-prop")
    )
    router = attach_hierarchy(graph, n_regions=regions, seed=0)
    rng = random.Random(probe)

    def check():
        alive = sorted(graph)
        for _ in range(6):
            src, dst = rng.sample(alive, 2)
            flat, _ = reference_dijkstra(graph.neighbors, src, dst)
            assert _plan_or_none(router, src, dst) == flat, (src, dst)

    check()
    for kind, a, b, weight in steps:
        alive = sorted(graph)
        if kind == "remove":
            start = a % len(alive)
            graph.patch(remove=alive[start : start + 1 + b % 4])
        elif alive[a % len(alive)] != alive[b % len(alive)]:
            graph.add_link(alive[a % len(alive)], alive[b % len(alive)], weight)
        check()


# ----------------------------------------------------------------------
# Sparse overlay: only direct D entries enter the global CSR
# ----------------------------------------------------------------------
def _brute_direct(overlay):
    """``i → j`` is direct when no other border lies strictly between
    them on border ``i``'s tree path, walked node by node."""
    b = len(overlay.borders)
    direct = np.zeros((b, b), dtype=bool)
    if not b:
        return direct
    _, pred = dijkstra(
        overlay.csr,
        directed=True,
        indices=overlay.border_rows,
        return_predecessors=True,
    )
    border_rows = set(overlay.border_rows.tolist())
    for i, root in enumerate(overlay.border_rows):
        for j, row in enumerate(overlay.border_rows):
            if i == j or pred[i, row] < 0:
                continue
            v = pred[i, row]
            while v != root and v not in border_rows:
                v = pred[i, v]
            direct[i, j] = v == root
    return direct


def _assert_sparse_matches_dense(router):
    """Every border's distances over the router's global CSR (direct
    ``D`` entries) equal those over a dense overlay built here from
    every finite off-diagonal ``D`` entry, to ``rtol=1e-12``."""
    total = len(router._gid_building)
    gid_of = {b: g for g, b in enumerate(router._gid_building)}
    rows, cols, data = [], [], []
    for overlay, gids in zip(router._overlays, router._region_gids):
        i, j = np.nonzero(np.isfinite(overlay.D))
        off = i != j
        rows += gids[i[off]].tolist()
        cols += gids[j[off]].tolist()
        data += overlay.D[i[off], j[off]].tolist()
        for u, v, w in overlay.cross:
            rows.append(gid_of[u])
            cols.append(gid_of[v])
            data.append(w)
    dense_csr = csr_matrix((data, (rows, cols)), shape=(total, total))
    borders = np.arange(total)
    dense = dijkstra(dense_csr, directed=True, indices=borders)
    # The router's CSR without its S and T rows and columns.
    sparse = dijkstra(router._overlay[:total, :total], directed=True, indices=borders)
    finite = np.isfinite(dense)
    assert (np.isfinite(sparse) == finite).all()
    gap = np.abs(sparse[finite] - dense[finite]) / np.maximum(dense[finite], 1e-300)
    worst = float(gap.max()) if gap.size else 0.0
    assert worst <= 1e-12, f"largest relative difference {worst:.3e}"


def test_direct_set_matches_brute_force_walk():
    """The stored direct mask equals a node-by-node predecessor walk on
    every region, through mutations that leave regions with one
    border, with none, and with an interior that no longer connects
    all of its borders."""
    cols = rows = 24
    graph = BuildingGraph(metro_grid(seed=5, cols=cols, rows=rows, name="metro-576"))
    router = attach_hierarchy(graph, n_regions=6, seed=0)
    seen = {"no_border": False, "one_border": False, "split_interior": False}

    def check():
        router.build_overlays()
        for overlay in router._overlays:
            assert (overlay.direct == _brute_direct(overlay)).all(), overlay.region
            b = len(overlay.borders)
            seen["no_border"] |= b == 0
            seen["one_border"] |= b == 1
            seen["split_interior"] |= bool(
                np.isinf(overlay.D[~np.eye(b, dtype=bool)]).any()
            )
        _assert_sparse_matches_dense(router)

    check()
    # Sever the grid down the middle: regions straddling the cut keep
    # borders on both sides of it.
    graph.patch(remove=[r * cols + c + 1 for r in range(rows) for c in (11, 12)])
    check()
    # Strip one region down to a single border and another to none.
    # Removing a member never adds a cross edge, so no member of the
    # region becomes a border in their place.
    by_borders = sorted(router._overlays, key=lambda o: len(o.borders))
    one, none = by_borders[-1], by_borders[-2]
    graph.patch(remove=list(one.borders[1:]) + list(none.borders))
    check()
    assert seen == dict.fromkeys(seen, True)
    # Routes over the mutated metro are still the flat planner's.
    rng = random.Random(4)
    alive = sorted(graph)
    for _ in range(40):
        src, dst = rng.sample(alive, 2)
        flat, _ = reference_dijkstra(graph.neighbors, src, dst)
        assert _plan_or_none(router, src, dst) == flat, (src, dst)


def test_sparse_overlay_distances_match_dense(metro_graph):
    """The sparse overlay keeps every border-to-border distance while
    holding at most a third of the finite ``D`` entries."""
    router = metro_graph.hierarchy
    router.build_overlays()
    _assert_sparse_matches_dense(router)
    dense_entries = sum(
        int(np.isfinite(o.D).sum()) - len(o.borders) for o in router._overlays
    )
    direct_entries = sum(int(o.direct.sum()) for o in router._overlays)
    assert direct_entries * 3 <= dense_entries


# ----------------------------------------------------------------------
# Cache instrumentation
# ----------------------------------------------------------------------
def test_stats_and_cache_gauges(metro_graph):
    router = metro_graph.hierarchy
    src, dst = far_pairs(1, seed=41)[0]
    router.plan(src, dst)
    hits_before = router.stats()["route_cache_hits"]
    router.plan(src, dst)  # warm: must hit the route shard
    stats = router.stats()
    assert stats["route_cache_hits"] == hits_before + 1
    assert stats["route_cache_entries"] >= 1
    assert stats["route_cache_approx_bytes"] > 0
    assert stats["regions"] == len(router.partition)
    assert stats["borders"] > 0
    # stats() publishes the gauges to the shared registry.
    for family in ("route_cache", "expansion_cache"):
        gauge = REGISTRY.gauge(f"metro.{family}.entries")
        assert gauge.value == stats[f"{family}_entries"]
        bytes_gauge = REGISTRY.gauge(f"metro.{family}.approx_bytes")
        assert bytes_gauge.value == stats[f"{family}_approx_bytes"]
    # Overlay bytes: every region's D and CSR plus the global overlay.
    region_bytes = sum(r["overlay_bytes"] for r in router.shard_stats())
    assert stats["overlay_approx_bytes"] > region_bytes > 0
    gauge = REGISTRY.gauge("metro.overlay.approx_bytes")
    assert gauge.value == stats["overlay_approx_bytes"]
    # Overlay edges: the global CSR less its 2·borders + 1 attachments,
    # i.e. every direct D entry plus every cross edge.
    assert stats["overlay_edges"] == router._overlay.nnz - (2 * stats["borders"] + 1)
    assert stats["overlay_edges"] == sum(
        int(o.direct.sum()) + len(o.cross) for o in router._overlays
    )
    assert REGISTRY.gauge("metro.overlay.edges").value == stats["overlay_edges"]


def test_shard_stats_rows(metro_graph):
    router = metro_graph.hierarchy
    rows = router.shard_stats()
    assert len(rows) == len(router.partition)
    assert sum(r["members"] for r in rows) == len(metro_graph)
    assert all(r["borders"] > 0 for r in rows)
    assert all(r["overlay_bytes"] > 0 for r in rows)
    assert sum(r["route_entries"] for r in rows) >= 1


def test_attach_returns_router_and_sets_attribute():
    city = metro_grid(seed=9, cols=12, rows=12, name="tiny-metro")
    graph = BuildingGraph(city)
    router = attach_hierarchy(graph, target_region_size=40, seed=1)
    assert isinstance(router, MetroRouter)
    assert graph.hierarchy is router
    route = router.plan(1, 144)
    assert route[0] == 1 and route[-1] == 144
