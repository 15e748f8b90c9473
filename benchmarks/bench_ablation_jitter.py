"""Ablation: rebroadcast jitter under the collision MAC model.

§6 names wireless channel congestion as the effect a higher-fidelity
simulation must add.  Under the overlap-collision model, rebroadcast
jitter is what keeps conduit flooding alive: with zero jitter every AP
of a building transmits in the same slot and jams its neighbours.  Each
pair runs as one message through the shared-air traffic simulator.
"""

import random

from repro.experiments import sample_building_pairs
from repro.sim import ConduitPolicy, SimParams, TrafficMessage, simulate_traffic


def run_jitter_sweep(world, jitters, pairs=10, seed=0):
    rng = random.Random(seed)
    pair_list = sample_building_pairs(world, pairs, rng)
    rows = []
    for jitter in jitters:
        delivered = 0
        attempted = 0
        collision_rates = []
        sim_rng = random.Random(seed + 1)
        for s, d in pair_list:
            try:
                plan = world.router.plan(s, d)
            except Exception:
                continue
            attempted += 1
            policy = ConduitPolicy(plan.conduits, world.city)
            message = TrafficMessage(0, 0.0, world.graph.aps_in_building(s)[0], d, policy)
            result = simulate_traffic(
                world.graph, [message], sim_rng, params=SimParams(jitter_s=jitter)
            )
            delivered += result.outcomes[0].delivered
            collision_rates.append(result.collision_rate)
        rows.append(
            (
                jitter,
                delivered / attempted if attempted else 0.0,
                sum(collision_rates) / len(collision_rates) if collision_rates else 0.0,
            )
        )
    return rows


def test_bench_ablation_jitter(benchmark, gridport):
    rows = benchmark.pedantic(
        lambda: run_jitter_sweep(gridport, jitters=(0.0, 0.01, 0.05, 0.1), pairs=10),
        rounds=1,
        iterations=1,
    )
    print("\nJitter sweep under the collision MAC model (gridport):")
    print("jitter (ms) | deliverability | mean collision rate")
    for jitter, rate, coll in rows:
        print(f"{jitter * 1000:11.0f} | {rate:14.2f} | {coll:.2f}")

    by_jitter = {round(j * 1000): (rate, coll) for j, rate, coll in rows}
    # Zero jitter jams the channel almost completely.
    assert by_jitter[0][1] > 0.5          # collision rate
    # Generous jitter restores most deliveries and cuts collisions.
    assert by_jitter[100][0] >= by_jitter[0][0]
    assert by_jitter[100][1] < by_jitter[0][1]
    # Monotone trend end-to-end.
    assert by_jitter[100][0] >= by_jitter[10][0] - 0.2
