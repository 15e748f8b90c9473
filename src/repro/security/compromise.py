"""Compromised-node models (§1's security element).

Under cyberattack "some fraction of the nodes will be compromised";
the baseline adversary here is a *blackhole*: a compromised AP keeps
receiving packets but never rebroadcasts, silently eroding conduit
connectivity.  Two selection models are provided — random fraction and
targeted cut (the adversary compromises the busiest relay APs).
"""

from __future__ import annotations

import random

import numpy as np

from ..mesh import APGraph
from ..mesh.reach import hops_to


def random_compromise(
    graph: APGraph, fraction: float, rng: random.Random
) -> frozenset[int]:
    """Compromise a uniformly random fraction of all APs.

    Raises:
        ValueError: for fractions outside [0, 1].
    """
    if not 0 <= fraction <= 1:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    count = round(fraction * len(graph.aps))
    return frozenset(rng.sample(range(len(graph.aps)), count))


def targeted_compromise(
    graph: APGraph,
    count: int,
    sample_pairs: list[tuple[int, int]],
) -> frozenset[int]:
    """Compromise the APs that appear on the most shortest paths.

    A strong adversary with topology knowledge: for each sampled
    (source AP, destination building) pair, walk the true shortest
    path and count visits; the ``count`` most-visited APs are taken.

    Raises:
        ValueError: for a negative count.
    """
    if count < 0:
        raise ValueError("count must be non-negative")
    visits: dict[int, int] = {}
    for src, dst_building in sample_pairs:
        dst_aps = graph.aps_in_building(dst_building)
        if not dst_aps:
            continue
        path = graph.shortest_path(src, dst_aps[0])
        if path is None:
            continue
        for ap_id in path[1:-1]:
            visits[ap_id] = visits.get(ap_id, 0) + 1
    busiest = sorted(visits, key=lambda k: visits[k], reverse=True)
    return frozenset(busiest[:count])


def honest_path_exists(
    graph: APGraph,
    source_ap: int,
    dest_building: int,
    compromised: frozenset[int],
) -> bool:
    """Whether an uncompromised AP path exists (§1's success criterion).

    "A successful routing protocol for a DFN should find a path
    between two nodes wishing to communicate if there exists a path
    that does not traverse a compromised node."  This oracle decides
    the *if*: BFS over the subgraph of honest APs (a compromised source
    or destination AP never counts).
    """
    honest = np.ones(len(graph.aps), dtype=bool)
    honest[list(compromised)] = False
    targets = graph.aps_in_building(dest_building)
    return hops_to(graph, source_ap, targets, honest) is not None
