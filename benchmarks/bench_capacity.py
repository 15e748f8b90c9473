"""Capacity bench: the DFN's sustainable message load.

Poisson traffic between random building pairs over the shared air
(collision MAC).  The paper's thesis — low-bandwidth disaster apps fit
a Wi-Fi mesh — predicts a flat delivery curve at messaging-scale loads
and graceful (not cliff-like) degradation beyond.
"""

from repro.experiments import format_capacity, run_capacity_sweep


def test_bench_capacity(benchmark, gridport):
    points = benchmark.pedantic(
        lambda: run_capacity_sweep(
            world=gridport,
            rates=(0.5, 4.0, 12.0),
            duration_s=15.0,
            seed=0,
        ),
        rounds=1,
        iterations=1,
    )
    print("\n" + format_capacity(points))

    by_rate = {p.rate_per_s: p for p in points}
    # Messaging-scale load (one message every 2 s city-wide) is easy.
    assert by_rate[0.5].delivery_rate > 0.85
    # Degradation with load is graceful: even at 24x the load the mesh
    # still delivers most messages.
    assert by_rate[12.0].delivery_rate > 0.6
    # And monotone (within noise).
    assert by_rate[0.5].delivery_rate >= by_rate[12.0].delivery_rate - 0.05
    # Load raises interference.
    assert by_rate[12.0].collision_rate >= by_rate[0.5].collision_rate - 0.05
