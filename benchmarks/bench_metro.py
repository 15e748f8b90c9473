"""Metro-scale hierarchical routing benchmark (repro.buildgraph.hierarchy).

Builds a metro preset (default ``metro-100k``: ~100k buildings),
attaches the region hierarchy, and measures the pillars of the
hierarchical planner:

- **partition + overlay build** — the one-off contraction cost;
- **cold routes** — uniformly sampled pairs (the metro traffic mix),
  p50/p95 per route, plus a corner-to-corner *far* set that isolates
  the worst-case tail (maximal region crossings);
- **warm routes** — route-shard hits on replanning the same pairs;
- **10k-request batch** — metro traffic with popular destinations
  (requests drawn from a bounded unique-pair pool), exercising the
  per-region route/terminal cache leverage;
- **equivalence** — sampled routes cost-match the flat planner on the
  *same* graph (``graph.plan`` stays the flat reference even with a
  hierarchy attached);
- **invalidation** — a localized patch rebuilds only the touched
  regions' overlays, timed.

One JSON perf record is emitted at teardown (stdout, and
``$METRO_PERF_JSON`` when set).  ``METRO_BENCH_PRESET`` picks the
city (CI smoke uses ``metro-20k``); ``METRO_BENCH_COLD_ROUTES``,
``METRO_BENCH_BATCH_REQUESTS`` and ``METRO_BENCH_BATCH_UNIQUE`` scale
the workload.
"""

import math
import os
import random
import statistics
import time

import pytest
from conftest import perf_recording

from repro.buildgraph import BuildingGraph, attach_hierarchy
from repro.city import make_city

PRESET = os.environ.get("METRO_BENCH_PRESET", "metro-100k")
COLD_ROUTES = int(os.environ.get("METRO_BENCH_COLD_ROUTES", "200"))
BATCH_REQUESTS = int(os.environ.get("METRO_BENCH_BATCH_REQUESTS", "10000"))
BATCH_UNIQUE = int(os.environ.get("METRO_BENCH_BATCH_UNIQUE", "1000"))


@pytest.fixture(scope="module")
def perf_record():
    """Accumulates measurements; dumped as one JSON record at teardown."""
    yield from perf_recording("metro", "METRO_PERF_JSON", preset=PRESET)


@pytest.fixture(scope="module")
def metro(perf_record):
    """The metro world: city, graph, attached hierarchy (all timed)."""
    city = make_city(PRESET, seed=0)
    t0 = time.perf_counter()
    graph = BuildingGraph(city)
    perf_record["graph_build_s"] = time.perf_counter() - t0
    t0 = time.perf_counter()
    router = attach_hierarchy(graph, seed=0)
    perf_record["partition_s"] = time.perf_counter() - t0
    router.build_overlays()
    stats = router.stats()
    perf_record["n_buildings"] = len(graph)
    perf_record["edges"] = graph.stats()["edges"]
    perf_record["regions"] = stats["regions"]
    perf_record["borders"] = stats["borders"]
    perf_record["overlay_build_s"] = stats["overlay_build_time_s"]
    return graph


def _far_pairs(n, count, seed=1):
    """Opposite-edge pairs: maximal region crossings."""
    side = int(math.isqrt(n))
    rng = random.Random(seed)
    low = range(1, side + 1)
    high = range(n - side + 1, n + 1)
    return [(rng.choice(low), rng.choice(high)) for _ in range(count)]


def _route_cost(graph, route):
    return sum(graph.neighbors(a)[b] for a, b in zip(route, route[1:]))


@pytest.fixture(scope="module")
def cold_pairs(metro):
    rng = random.Random(1)
    ids = range(1, len(metro) + 1)
    return [tuple(rng.sample(ids, 2)) for _ in range(COLD_ROUTES)]


def _timed_plans(router, pairs):
    latencies = []
    for src, dst in pairs:
        t0 = time.perf_counter()
        route = router.plan(src, dst)
        latencies.append(time.perf_counter() - t0)
        assert route[0] == src and route[-1] == dst
    latencies.sort()
    return latencies


def test_bench_cold_routes(metro, cold_pairs, perf_record):
    router = metro.hierarchy
    router.reset_stats()
    latencies = _timed_plans(router, cold_pairs)
    stats = router.stats()
    perf_record["cold_routes"] = len(latencies)
    perf_record["cold_route_p50_s"] = statistics.median(latencies)
    perf_record["cold_route_p95_s"] = latencies[int(len(latencies) * 0.95) - 1]
    perf_record["cold_route_max_s"] = latencies[-1]
    perf_record["overlay_settled_per_route"] = (
        stats["overlay_settled"] / len(latencies)
    )
    # Catastrophic-regression backstop (the real bar is the committed
    # baseline compare); generous so loaded CI runners don't flake.
    assert perf_record["cold_route_p50_s"] < 0.5


def test_bench_far_routes(metro, perf_record):
    """The worst-case tail: cold corner-to-corner routes."""
    router = metro.hierarchy
    pairs = _far_pairs(len(metro), max(20, COLD_ROUTES // 4))
    latencies = _timed_plans(router, pairs)
    perf_record["far_routes"] = len(pairs)
    perf_record["far_route_p50_s"] = statistics.median(latencies)
    perf_record["far_route_max_s"] = latencies[-1]


def test_bench_warm_routes(metro, cold_pairs, perf_record):
    router = metro.hierarchy
    latencies = []
    for src, dst in cold_pairs:
        t0 = time.perf_counter()
        router.plan(src, dst)
        latencies.append(time.perf_counter() - t0)
    latencies.sort()
    warm_p50 = statistics.median(latencies)
    perf_record["warm_route_p50_s"] = warm_p50
    perf_record["warm_speedup"] = (
        perf_record["cold_route_p50_s"] / warm_p50
        if warm_p50 > 0
        else float("inf")
    )
    assert perf_record["warm_speedup"] > 10


def test_bench_batch_requests(metro, perf_record):
    """A metro traffic mix: many requests over few popular pairs."""
    router = metro.hierarchy
    rng = random.Random(9)
    ids = range(1, len(metro) + 1)
    unique = [tuple(rng.sample(ids, 2)) for _ in range(BATCH_UNIQUE)]
    requests = [unique[rng.randrange(len(unique))] for _ in range(BATCH_REQUESTS)]
    router.reset_stats()
    t0 = time.perf_counter()
    results = router.plan_routes(requests)
    total_s = time.perf_counter() - t0
    stats = router.stats()
    perf_record["batch_requests"] = len(requests)
    perf_record["batch_unique_pairs"] = len(unique)
    perf_record["batch_total_s"] = total_s
    perf_record["batch_routes_per_s"] = len(requests) / total_s
    perf_record["batch_route_cache_hits"] = stats["route_cache_hits"]
    perf_record["batch_terminal_sssp_runs"] = stats["terminal_sssp_runs"]
    perf_record["unroutable"] = sum(1 for r in results if r is None)
    assert perf_record["unroutable"] == 0
    assert stats["route_cache_hits"] >= len(requests) - len(unique) * 2


def test_bench_cache_footprint(metro, perf_record):
    """Per-region cache accounting after the batch (satellite #3)."""
    router = metro.hierarchy
    stats = router.stats()
    shards = router.shard_stats()
    for family in ("route_cache", "expansion_cache", "terminal_cache"):
        perf_record[f"{family}_entries"] = stats[f"{family}_entries"]
        perf_record[f"{family}_approx_bytes"] = stats[f"{family}_approx_bytes"]
    perf_record["shard_route_entries_max"] = max(
        s["route_entries"] for s in shards
    )
    perf_record["shard_borders_max"] = max(s["borders"] for s in shards)
    perf_record["shards"] = shards  # full per-region detail (non-metric)
    assert stats["route_cache_approx_bytes"] > 0


def test_bench_flat_equivalence(metro, perf_record):
    """Sampled hierarchical routes cost-match the flat planner."""
    router = metro.hierarchy
    pairs = _far_pairs(len(metro), 15, seed=31)
    rng = random.Random(13)
    ids = range(1, len(metro) + 1)
    pairs += [tuple(rng.sample(ids, 2)) for _ in range(10)]
    for src, dst in pairs:
        h_cost = _route_cost(metro, router.plan(src, dst))
        f_cost = _route_cost(metro, metro.plan(src, dst))
        assert math.isclose(h_cost, f_cost, rel_tol=1e-9), (src, dst)
    perf_record["equivalence_pairs"] = len(pairs)


def test_bench_localized_invalidation(metro, perf_record):
    """A one-region patch rebuilds only the touched overlays."""
    router = metro.hierarchy
    region = router.partition.regions[0]
    doomed = list(region.members[50:70])
    before = router.stats()["region_rebuilds"]
    metro.patch(remove=doomed)
    t0 = time.perf_counter()
    router.build_overlays()
    rebuild_s = time.perf_counter() - t0
    rebuilt = router.stats()["region_rebuilds"] - before
    perf_record["invalidation_removed"] = len(doomed)
    perf_record["invalidation_rebuild_s"] = rebuild_s
    perf_record["invalidation_regions_rebuilt"] = rebuilt
    assert 1 <= rebuilt < len(router.partition) / 2
    # Replanning over the patched metro still matches the flat planner.
    src, dst = _far_pairs(len(metro), 1, seed=47)[0]
    h_cost = _route_cost(metro, router.plan(src, dst))
    f_cost = _route_cost(metro, metro.plan(src, dst))
    assert math.isclose(h_cost, f_cost, rel_tol=1e-9)
