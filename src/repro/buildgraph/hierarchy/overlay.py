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

Only the *direct* entries of ``D`` need to enter that search.  Entry
``i → j`` is direct when border ``i``'s shortest-path tree reaches
``j`` without passing another border.  Otherwise the tree path passes
a first border ``k``: ``i → k`` is direct, and the path's remainder
costs ``D[i, j] - D[i, k]``, which by the triangle inequality equals
``D[k, j]``.  Edge weights are positive, so ``D[k, j] < D[i, j]``, and
by induction on the weight ``k → j`` is a chain of direct entries of
the same total.  Dropping the implied entries therefore leaves every
overlay distance unchanged in exact arithmetic; on metro-20k 12 % of
the finite off-diagonal ``D`` entries are direct.  In floats a chain
``D[i, k] + D[k, j]`` sums in another order than ``D[i, j]``, and
under an exact tie ``k``'s tree may reach ``j`` by another path than
``i``'s tree did.  Route identity with the flat planner is therefore
an empirical gate (``tests/test_metro_hierarchy.py``).  ``D`` itself
is kept whole: it is the cut-off of leg expansion.

A :class:`RegionOverlay` holds the region's intra edges as one scipy
CSR matrix over its sorted members, the building ↔ row maps, the
border rows, ``D`` and its direct mask (one batched multi-source
:func:`scipy.sparse.csgraph.dijkstra` over that CSR) and the
cross-region edges.  The router runs every per-query search — terminal
trees and leg expansion — on the same CSR.
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
        members: the region's live buildings, ascending id order (row
            ``i`` of :attr:`csr` is ``members[i]``).
        local: building id → row in :attr:`csr`.
        csr: ``(M, M)`` intra-region adjacency (edges whose both
            endpoints live in the region), weights as in the graph.
        borders: member buildings with at least one cross-region edge,
            ascending id order (``D`` rows/columns align with this).
        border_rows: ``csr`` row of each border, aligned with
            :attr:`borders`.
        D: ``(B, B)`` float64 exact intra-region border-to-border
            shortest-path weights; ``inf`` where the region's interior
            does not connect the pair.
        direct: ``(B, B)`` bool, ``True`` where ``D[i, j]`` is finite,
            ``i != j`` and border ``i``'s tree reaches ``j`` without
            passing another border; only these entries enter the global
            overlay.
        cross: original cross-region edges ``(border, other, weight)``
            leaving this region; ``other`` is by construction a border
            of its own region.
        built_version: the owning graph's version when built; caches
            derived from this overlay key on it.
    """

    region: int
    members: tuple[int, ...]
    local: dict[int, int]
    csr: csr_matrix
    borders: tuple[int, ...]
    border_rows: np.ndarray
    D: np.ndarray
    direct: np.ndarray
    cross: list[tuple[int, int, float]] = field(default_factory=list)
    built_version: int = 0

    def __len__(self) -> int:
        return len(self.members)

    def nbytes(self) -> int:
        """Bytes held by ``D``, its direct mask and the region CSR."""
        csr = self.csr
        return int(
            self.D.nbytes
            + self.direct.nbytes
            + csr.data.nbytes
            + csr.indices.nbytes
            + csr.indptr.nbytes
        )


def _direct_mask(pred: np.ndarray, border_rows: np.ndarray) -> np.ndarray:
    """Direct entries of ``D`` from the ``(B, M)`` predecessor matrix.

    A node is *blocked* in tree ``i`` when a border other than the root
    lies strictly between the root and it.  Pointer doubling ORs "my
    parent is a non-root border" up every tree at once: after ``t``
    rounds each node's flag covers its ``2**t`` nearest ancestors, and
    roots and unreachable nodes point at themselves, so the pointers
    stop moving after about ``log2(depth)`` rounds.
    """
    b, m = pred.shape
    is_border = np.zeros(m, dtype=bool)
    is_border[border_rows] = True
    up = np.where(pred < 0, np.arange(m), pred)
    blocked = (is_border[up] & (up != border_rows[:, None])).ravel()
    up = (up + np.arange(0, b * m, m)[:, None]).ravel()
    while True:
        blocked |= blocked[up]
        above = up[up]
        if np.array_equal(above, up):
            break
        up = above
    return (pred[:, border_rows] >= 0) & ~blocked.reshape(b, m)[:, border_rows]


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
    members = tuple(sorted(
        b for b in partition.live_members(region_idx) if b in graph
    ))
    local = {b: i for i, b in enumerate(members)}
    rows: list[int] = []
    cols: list[int] = []
    weights: list[float] = []
    cross: list[tuple[int, int, float]] = []
    borders: list[int] = []
    for u in members:
        iu = local[u]
        is_border = False
        for v, w in graph.neighbors(u).items():
            if region_of.get(v) == region_idx:
                rows.append(iu)
                cols.append(local[v])
                weights.append(w)
            else:
                cross.append((u, v, w))
                is_border = True
        if is_border:
            borders.append(u)
    n = len(members)
    csr = csr_matrix((weights, (rows, cols)), shape=(n, n))
    border_rows = np.array([local[b] for b in borders], dtype=np.int64)
    if borders:
        dist, pred = dijkstra(
            csr, directed=True, indices=border_rows, return_predecessors=True
        )
        D = np.ascontiguousarray(dist[:, border_rows])
        direct = _direct_mask(pred, border_rows)
    else:
        D = np.zeros((0, 0), dtype=np.float64)
        direct = np.zeros((0, 0), dtype=bool)
    overlay = RegionOverlay(
        region=region_idx,
        members=members,
        local=local,
        csr=csr,
        borders=tuple(borders),  # ascending: members were sorted
        border_rows=border_rows,
        D=D,
        direct=direct,
        cross=cross,
        built_version=built_version if built_version is not None else graph.version,
    )
    _M_OVERLAY_BUILDS.inc()
    _M_OVERLAY_BUILD_S.observe(time.perf_counter() - t0)
    return overlay


__all__ = ["RegionOverlay", "build_overlay"]
