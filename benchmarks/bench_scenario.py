"""Benchmark for the scenario engine: epochs/sec on a ≥5k-AP city.

One flood-and-bridge timeline on a 16x16-block downtown (~7k APs):
damage severs the grid at epoch 1, operators bridge the islands at
epoch 2, and every epoch replans and re-simulates 16 flows.  The JSON
perf record (printed at teardown and written to ``$SCENARIO_PERF_JSON``
when set) carries the epochs/sec throughput plus the run's structural
outcomes, so CI trends catch both performance and behaviour drift.

The driver is timed on its own — the world build is excluded, exactly
as it amortises over a real sweep.  Throughput is reported from
per-epoch wall-time percentiles (``epoch_p50_s`` / ``epoch_p95_s``,
with ``epochs_per_s = 1 / p50``) rather than the aggregate mean, so a
slow mutation epoch (bridge deploy rebuilds the AP graph) doesn't mask
steady-state throughput; the aggregate ``run_s`` is still recorded.
``$SCENARIO_BENCH_EPOCHS`` overrides the epoch count (CI smoke runs 3).
"""

import os
import statistics
import time

import pytest
from conftest import perf_recording

from repro.city import grid_downtown
from repro.experiments import WorldSpec, build_world_from_city
from repro.geometry import Point, Polygon
from repro.scenario import (
    CongestionSpec,
    Damage,
    DeployBridges,
    ScenarioDriver,
    ScenarioSpec,
    generate_scenario,
    run_scenario,
)

BLOCKS = 16  # 16x16 blocks, pitch 104 m -> extent ~1650 m, ~7k APs
EPOCHS = int(os.environ.get("SCENARIO_BENCH_EPOCHS", "5"))
FLOWS = 16
# Drown the two middle block rows (y in [728, 922] plus margins): the
# remaining halves are >200 m apart, far beyond the 50 m radio range.
FLOOD = Polygon(
    (Point(-50.0, 715.0), Point(1750.0, 715.0),
     Point(1750.0, 935.0), Point(-50.0, 935.0))
)


@pytest.fixture(scope="module")
def big_world():
    """A ~7k-AP downtown too large for any preset (built once)."""
    return build_world_from_city(grid_downtown(seed=0, blocks_x=BLOCKS,
                                               blocks_y=BLOCKS), seed=0)


@pytest.fixture(scope="module")
def perf_record():
    """Accumulates measurements; dumped as one JSON record at teardown."""
    yield from perf_recording("scenario", "SCENARIO_PERF_JSON")


def test_bench_scenario_epoch_throughput(big_world, perf_record):
    n_aps = len(big_world.graph.aps)
    assert n_aps >= 5_000, f"bench city too small: {n_aps} APs"

    spec = ScenarioSpec(
        name="bench-flood",
        # Labels the seed streams only: the driver runs the injected
        # world, which has no preset spec (hence the serial runner).
        world=WorldSpec("gridport", seed=0),
        epochs=EPOCHS,
        epoch_hours=4.0,
        events=(
            Damage(epoch=1, area=FLOOD),
            DeployBridges(epoch=2, min_island_size=5),
        ),
        flows=FLOWS,
    )
    with ScenarioDriver(spec, world=big_world) as driver:
        t0 = time.perf_counter()
        result = driver.run()
        run_s = time.perf_counter() - t0
        epoch_walls = list(driver.epoch_wall_s)

    # Structural sanity: the timeline actually exercised the engine.
    assert result.max_islands > 1
    assert result.total_deployed_aps > 0
    assert result.epochs[1].mutated and result.epochs[2].mutated
    assert len(epoch_walls) == EPOCHS

    # Percentiles over per-epoch walls: p50 is the steady-state epoch;
    # p95 captures the worst mutation epoch (damage/bridge rebuilds).
    walls = sorted(epoch_walls)
    epoch_p50_s = statistics.median(walls)
    epoch_p95_s = walls[min(len(walls) - 1, max(0, -(-95 * len(walls) // 100) - 1))]

    perf_record["n_aps"] = n_aps
    perf_record["epochs"] = EPOCHS
    perf_record["flows_per_epoch"] = FLOWS
    perf_record["run_s"] = run_s
    perf_record["epoch_p50_s"] = epoch_p50_s
    perf_record["epoch_p95_s"] = epoch_p95_s
    perf_record["epochs_per_s"] = 1.0 / epoch_p50_s
    perf_record["total_replans"] = result.total_replans
    perf_record["max_islands"] = result.max_islands
    perf_record["deployed_aps"] = result.total_deployed_aps
    perf_record["min_delivery_rate"] = result.min_delivery_rate
    perf_record["final_delivery_rate"] = result.final_delivery_rate


def test_bench_scenario_congestion_coupling(perf_record):
    """Stage 2: the shared-air congestion coupling, measured.

    The same generated flood timeline is scored twice — private-air
    (every flow broadcasts alone) and congestion-coupled with a
    saturating 0.5 s injection window (12 flows colliding on the
    shared medium).  The coupling must *measurably* degrade delivery,
    and switching it off must leave the zero-load result byte-identical
    run to run — the congestion path cannot leak into the default
    scoring.
    """
    base = generate_scenario("flood", seed=7, flows=FLOWS)
    squeezed = generate_scenario(
        "flood", seed=7, flows=FLOWS, congestion=CongestionSpec(window_s=0.5)
    )

    free = run_scenario(base)
    assert free.to_json(manifest=False) == run_scenario(base).to_json(
        manifest=False
    )

    t0 = time.perf_counter()
    jammed = run_scenario(squeezed)
    congested_run_s = time.perf_counter() - t0

    def mean_rate(result):
        delivered = sum(r.delivered_flows for r in result.epochs)
        flows = sum(r.flows for r in result.epochs)
        return delivered / flows

    uncongested_rate = mean_rate(free)
    congested_rate = mean_rate(jammed)
    assert congested_rate < uncongested_rate, (
        f"congestion coupling had no effect: {congested_rate} vs "
        f"{uncongested_rate}"
    )

    perf_record["uncongested_delivery_rate"] = uncongested_rate
    perf_record["congested_delivery_rate"] = congested_rate
    perf_record["congested_run_s"] = congested_run_s
