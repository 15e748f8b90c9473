"""Multi-seed replication: are the Figure 6 results seed-artifacts?

Each replication rebuilds the city, the AP placement, and the pair
sample from a fresh seed and reruns the Figure 6 pipeline.  The paper
reports single realisations; this experiment adds the error bars.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..analysis import format_table
from .common import build_world
from .fig6 import run_fig6_city


@dataclass(frozen=True)
class ReplicatedCity:
    """Mean and standard deviation over seeds for one city (None where
    no seed measured the quantity)."""

    city: str
    seeds: int
    reachability_mean: float | None
    reachability_std: float | None
    deliverability_mean: float | None
    deliverability_std: float | None
    overhead_mean: float | None


def _mean_std(values: list[float | None]) -> tuple[float | None, float | None]:
    """Mean and sample std over the defined values; None for none."""
    values = [v for v in values if v is not None]
    n = len(values)
    if n == 0:
        return None, None
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)


def replicate_fig6(
    city_name: str,
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4),
    reach_pairs: int = 200,
    delivery_pairs: int = 15,
) -> ReplicatedCity:
    """Run the Figure 6 pipeline once per seed and aggregate.

    Raises:
        ValueError: for an empty seed tuple.
    """
    if not seeds:
        raise ValueError("need at least one seed")
    rows = [
        run_fig6_city(
            build_world(city_name, seed=seed),
            seed=seed,
            reach_pairs=reach_pairs,
            delivery_pairs=delivery_pairs,
        )
        for seed in seeds
    ]
    reach_mean, reach_std = _mean_std([r.reachability for r in rows])
    deliv_mean, deliv_std = _mean_std([r.deliverability for r in rows])
    return ReplicatedCity(
        city=city_name,
        seeds=len(seeds),
        reachability_mean=reach_mean,
        reachability_std=reach_std,
        deliverability_mean=deliv_mean,
        deliverability_std=deliv_std,
        overhead_mean=_mean_std([r.median_overhead for r in rows])[0],
    )


def _pm(mean: float | None, std: float | None) -> str:
    return "-" if mean is None else f"{mean:.3f}±{std:.3f}"


def format_replication(results: list[ReplicatedCity]) -> str:
    """Replication table with mean ± std columns."""
    return format_table(
        ["city", "seeds", "reachability", "deliverability|reach", "mean med-overhead"],
        [
            [
                r.city,
                r.seeds,
                _pm(r.reachability_mean, r.reachability_std),
                _pm(r.deliverability_mean, r.deliverability_std),
                r.overhead_mean,
            ]
            for r in results
        ],
        title="Figure 6 replication across seeds (fresh city + placement each)",
    )
