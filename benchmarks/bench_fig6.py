"""Benchmark + reproduction of Figure 6 (the headline evaluation).

Per-city reachability (sampled pairs through the AP graph),
deliverability given reachability (full event-based simulation), and
transmission overhead vs the oracle unicast, at the paper's settings
(50 m range, 1 AP / 200 m², W = 50 m).

Scale note: the paper samples 1000 pairs for reachability and 50 for
delivery per city; the bench uses 150/15 per city so the suite stays
interactive.  Run ``python -m repro fig6`` for full scale.
"""

from repro.experiments import format_fig6, run_fig6

DENSE_CITIES = {"gridport", "parkside", "pontsville"}
FRACTURED_CITIES = {"riverton", "capitolia"}


def test_bench_fig6(benchmark):
    rows = benchmark.pedantic(
        lambda: run_fig6(seed=0, reach_pairs=150, delivery_pairs=15),
        rounds=1,
        iterations=1,
    )
    print("\n" + format_fig6(rows))

    by_city = {r.city: r for r in rows}
    assert len(rows) == 8

    # Dense, obstacle-free (or bridged) cities reach almost everything.
    for name in DENSE_CITIES:
        assert by_city[name].reachability > 0.9, name

    # River/highway cities fracture into islands (the D.C. effect).
    for name in FRACTURED_CITIES:
        assert by_city[name].reachability < 0.7, name

    # Deliverability given reachability is high for most cities.
    high_deliv = [r for r in rows if r.deliverability >= 0.7]
    assert len(high_deliv) >= 5, format_fig6(rows)

    # Overhead: same order as the paper's ~13x (all APs of a conduit
    # building rebroadcast).
    overheads = [r.median_overhead for r in rows if r.median_overhead]
    assert overheads
    assert any(5 <= o <= 30 for o in overheads)
