"""Microbenchmarks for the repro.buildgraph routing core.

A ~10k-building synthetic city exercises the four perf pillars:

- **graph build** via the spatial hash — verified by the work counter
  (candidate pairs examined ≪ n²/2), not wall clock;
- **cold plan()** throughput (heap A* across the whole city);
- **warm plan()** throughput (route-cache hits, required ≥ 10x faster
  than cold — in practice it is orders of magnitude);
- **batched plan_routes()** — 100 pairs over 10 sources must cost at
  most 10 full single-source Dijkstra expansions.

The module emits one JSON perf record at teardown (printed to stdout,
and written to ``$BUILDGRAPH_PERF_JSON`` when set) so the bench
trajectory can be tracked across commits.
"""

import random
import time

import pytest
from conftest import perf_recording

from repro.buildgraph import BuildingGraph
from repro.city import Building, City
from repro.geometry import Polygon

COLS = ROWS = 100  # 10_000 buildings
SIZE = 30.0
GAP = 15.0
N_BUILDINGS = COLS * ROWS


def synthetic_city(cols=COLS, rows=ROWS, seed=0):
    """A jittered lattice: ~city-block footprints, 10k of them."""
    rng = random.Random(seed)
    pitch = SIZE + GAP
    buildings = []
    for j in range(rows):
        for i in range(cols):
            w = SIZE + rng.uniform(-4.0, 4.0)
            h = SIZE + rng.uniform(-4.0, 4.0)
            x0 = i * pitch + rng.uniform(-2.0, 2.0)
            y0 = j * pitch + rng.uniform(-2.0, 2.0)
            buildings.append(
                Building(j * cols + i + 1, Polygon.rectangle(x0, y0, x0 + w, y0 + h))
            )
    return City("synthetic-10k", buildings)


@pytest.fixture(scope="module")
def big_city():
    return synthetic_city()


@pytest.fixture(scope="module")
def big_graph(big_city):
    return BuildingGraph(big_city)


@pytest.fixture(scope="module")
def perf_record():
    """Accumulates measurements; dumped as one JSON record at teardown."""
    yield from perf_recording("buildgraph", "BUILDGRAPH_PERF_JSON", n_buildings=N_BUILDINGS)


def far_pairs(graph, count, seed=1):
    """Long corner-to-corner-ish pairs (the expensive cold plans)."""
    rng = random.Random(seed)
    low = [b for b in range(1, COLS + 1)]
    high = [b for b in range(N_BUILDINGS - COLS + 1, N_BUILDINGS + 1)]
    return [(rng.choice(low), rng.choice(high)) for _ in range(count)]


def test_bench_build_uses_spatial_hash(benchmark, big_city, perf_record):
    graph = benchmark.pedantic(
        lambda: BuildingGraph(big_city), rounds=1, iterations=1
    )
    s = graph.stats()
    n = graph.node_count()
    all_pairs = n * (n - 1) / 2
    # The whole point: candidate generation is bucketed, not O(n^2).
    assert s["build_candidates_checked"] < all_pairs / 100
    assert s["edges"] > 0
    perf_record["build_s"] = s["build_time_s"]
    perf_record["build_candidates_checked"] = s["build_candidates_checked"]
    perf_record["build_exact_distance_checks"] = s["build_exact_distance_checks"]
    perf_record["all_pairs_would_be"] = all_pairs
    perf_record["edges"] = s["edges"]


def test_bench_cold_plan(benchmark, big_graph, perf_record):
    pairs = far_pairs(big_graph, 16)
    it = iter(range(1 << 30))

    def cold_plan():
        # A different uncached pair each round; clearing keeps every
        # iteration a genuine full A* search.
        big_graph.clear_route_cache()
        src, dst = pairs[next(it) % len(pairs)]
        return big_graph.plan(src, dst)

    route = benchmark(cold_plan)
    assert route[0] in range(1, COLS + 1)
    perf_record["cold_plan_mean_s"] = benchmark.stats["mean"]


def test_bench_warm_plan(benchmark, big_graph, perf_record):
    src, dst = far_pairs(big_graph, 1)[0]
    big_graph.plan(src, dst)  # prime the cache

    route = benchmark(lambda: big_graph.plan(src, dst))
    assert route[0] == src and route[-1] == dst
    perf_record["warm_plan_mean_s"] = benchmark.stats["mean"]


def test_bench_batched_plan_routes(benchmark, big_graph, perf_record):
    rng = random.Random(7)
    ids = range(1, N_BUILDINGS + 1)
    sources = rng.sample(ids, 10)
    pairs = [(s, d) for s in sources for d in rng.sample(ids, 10)]
    assert len(pairs) == 100

    def batched():
        big_graph.clear_route_cache()
        big_graph.reset_stats()
        return big_graph.plan_routes(pairs)

    routes = benchmark.pedantic(batched, rounds=1, iterations=1)
    s = big_graph.stats()
    # The acceptance bar: 100 pairs sharing 10 sources cost at most 10
    # full single-source expansions — and zero point-to-point searches.
    assert s["sssp_runs"] <= 10
    assert s["astar_runs"] + s["dijkstra_runs"] == 0
    assert all(r is not None for r in routes)
    perf_record["batched_pairs"] = len(pairs)
    perf_record["batched_sssp_runs"] = s["sssp_runs"]
    perf_record["batched_nodes_expanded"] = s["nodes_expanded"]


def test_warm_cache_is_10x_faster_than_cold(big_graph, perf_record):
    """Wall-clock acceptance check, measured outside pytest-benchmark
    so the ratio lands in the same JSON record."""
    pairs = far_pairs(big_graph, 8, seed=3)
    big_graph.clear_route_cache()
    t0 = time.perf_counter()
    for src, dst in pairs:
        big_graph.plan(src, dst)
    cold_s = (time.perf_counter() - t0) / len(pairs)

    repeats = 50
    t0 = time.perf_counter()
    for _ in range(repeats):
        for src, dst in pairs:
            big_graph.plan(src, dst)
    warm_s = (time.perf_counter() - t0) / (len(pairs) * repeats)

    perf_record["cold_per_route_s"] = cold_s
    perf_record["warm_per_route_s"] = warm_s
    perf_record["warm_speedup"] = cold_s / warm_s if warm_s > 0 else float("inf")
    assert cold_s >= 10 * warm_s, (cold_s, warm_s)
