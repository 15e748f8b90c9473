"""Per-region border contraction: the metro overlay's building block.

Each region contracts to its *border* buildings (those with at least
one predicted edge leaving the region) plus a dense border-to-border
matrix ``D`` of exact intra-region shortest-path weights.  A metro
search over (all regions' ``D`` matrices ∪ the original cross-region
edges ∪ the source and destination regions' full subgraphs) is exact
for every pair — the classic customizable-route-planning argument:
any shortest path decomposes into maximal intra-region segments whose
endpoints are borders (or the terminals), and each such segment's
weight is ≥ the contracted edge weight by definition of ``D``.

``D`` is computed by one batched multi-source Dijkstra over the
region's intra subgraph (:mod:`scipy.sparse.csgraph`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from ...obs import REGISTRY
from .partition import RegionPartition

_M_OVERLAY_BUILDS = REGISTRY.counter("metro.overlay_builds")
_M_OVERLAY_BUILD_S = REGISTRY.timer("metro.overlay_build_s")


@dataclass
class RegionOverlay:
    """One region's contracted view, valid for a specific graph version.

    Attributes:
        region: index into the partition's region list.
        borders: member buildings with at least one cross-region edge,
            ascending id order (``D`` rows/columns align with this).
        border_local: building id → row index in ``D``.
        D: ``(B, B)`` float64 exact intra-region border-to-border
            shortest-path weights; ``inf`` where the region's interior
            does not connect the pair.
        subgraph: the region's intra adjacency (edges whose both
            endpoints live in the region), used for terminal Dijkstra
            and leg expansion.
        cross: original cross-region edges ``(border, other, weight)``
            leaving this region; ``other`` is by construction a border
            of its own region.
        built_version: the owning graph's version when built; caches
            derived from this overlay key on it.
    """

    region: int
    borders: tuple[int, ...]
    border_local: dict[int, int]
    D: np.ndarray
    subgraph: dict[int, dict[int, float]]
    cross: list[tuple[int, int, float]] = field(default_factory=list)
    built_version: int = 0

    def __len__(self) -> int:
        return len(self.subgraph)


def _border_matrix(
    members: list[int],
    borders: tuple[int, ...],
    subgraph: dict[int, dict[int, float]],
) -> np.ndarray:
    """Exact border-to-border distances over the intra subgraph."""
    if not borders:
        return np.zeros((0, 0), dtype=np.float64)
    local = {b: i for i, b in enumerate(members)}
    rows: list[int] = []
    cols: list[int] = []
    weights: list[float] = []
    for u in members:
        iu = local[u]
        for v, w in subgraph[u].items():
            rows.append(iu)
            cols.append(local[v])
            weights.append(w)
    mat = csr_matrix((weights, (rows, cols)), shape=(len(members), len(members)))
    src = [local[b] for b in borders]
    dist = dijkstra(mat, directed=True, indices=src)
    return np.ascontiguousarray(dist[:, src])


def build_overlay(
    graph,
    partition: RegionPartition,
    region_idx: int,
    built_version: int | None = None,
) -> RegionOverlay:
    """Contract one region of ``graph`` against the current partition.

    Membership is live: the partition's assignment filtered by graph
    presence, so demolished buildings drop out and later insertions
    (folded in via :meth:`RegionPartition.assign_building`) join.
    """
    t0 = time.perf_counter()
    region_of = partition.region_of
    members = sorted(
        b for b in partition.live_members(region_idx) if b in graph
    )
    subgraph: dict[int, dict[int, float]] = {}
    cross: list[tuple[int, int, float]] = []
    borders: list[int] = []
    for u in members:
        intra: dict[int, float] = {}
        is_border = False
        for v, w in graph.neighbors(u).items():
            if region_of.get(v) == region_idx:
                intra[v] = w
            else:
                cross.append((u, v, w))
                is_border = True
        subgraph[u] = intra
        if is_border:
            borders.append(u)
    border_tuple = tuple(borders)  # ascending: members were sorted
    D = _border_matrix(members, border_tuple, subgraph)
    overlay = RegionOverlay(
        region=region_idx,
        borders=border_tuple,
        border_local={b: i for i, b in enumerate(border_tuple)},
        D=D,
        subgraph=subgraph,
        cross=cross,
        built_version=built_version if built_version is not None else graph.version,
    )
    _M_OVERLAY_BUILDS.inc()
    _M_OVERLAY_BUILD_S.observe(time.perf_counter() - t0)
    return overlay


__all__ = ["RegionOverlay", "build_overlay"]
