"""MetroRouter: exact hierarchical planning over contracted regions.

Every search runs on :func:`scipy.sparse.csgraph.dijkstra`.  Planning a
route runs three stages:

1. **Terminal trees** — one full single-source tree over the source
   region's CSR and one over the destination region's.
2. **Overlay search** — one Dijkstra over the global overlay CSR, whose
   nodes are every border plus a virtual source ``S`` and target ``T``
   and whose edges are each region's *direct* ``D`` entries (those no
   other border of the region lies on; every other entry is a chain of
   direct ones at the same cost, see :mod:`.overlay`), the original
   cross-region edges, and ``S→border`` / ``border→T`` / ``S→T``
   attachments.  The attachment weights are ``inf``
   placeholders; a query writes the source tree's distances into
   ``S→b`` for the source region's borders, the destination tree's into
   ``b→T`` for the destination region's, and (same region) the direct
   distance into ``S→T``, searches from ``S``, and restores the
   placeholders.  The predecessor walk ``T→S`` is the border chain.
3. **Expansion** — consecutive chain borders in one region are a
   contracted leg, expanded by a region Dijkstra cut off at the leg's
   ``D`` weight (per-region LRU cached); other hops are literal cross
   edges.

The result is cost-identical to the flat planner in exact arithmetic
(see :mod:`.overlay` for the argument); a chain of ``D`` entries sums
in another order than the flat search, so route identity is an
empirical gate (``tests/test_metro_hierarchy.py``).  Route and
leg-expansion caches shard per region, and a mutation listener on the
owning :class:`~repro.buildgraph.BuildingGraph` marks only the touched
regions dirty so a patch rebuilds a couple of overlays, not the metro.

A router is not reentrant: :meth:`MetroRouter.plan` writes per-query
weights into the shared overlay CSR, on top of the LRUs and counters
every call updates.
"""

from __future__ import annotations

import time

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra

from ...obs import REGISTRY
from ..lru import LRUCache
from ..planner import NoRouteError, tree_path
from .overlay import RegionOverlay, build_overlay
from .partition import (
    DEFAULT_REGION_SIZE,
    RegionPartition,
    partition_regions,
)

_M_PLANS = REGISTRY.counter("metro.plan_calls")
_M_SEARCH_S = REGISTRY.timer("metro.route_search_s")
_M_SETTLED = REGISTRY.counter("metro.overlay_settled")
_M_REBUILDS = REGISTRY.counter("metro.region_rebuilds")

# Per-shard cache bounds.  Routes/legs are tuples of building ids, so
# shard_count * bound * route_length bounds retained bytes.
DEFAULT_ROUTE_CACHE_PER_REGION = 256
DEFAULT_EXPANSION_CACHE_PER_REGION = 512

# Sentinel for pairs proven unroutable (mirrors the flat planner).
_NO_ROUTE = object()


class MetroRouter:
    """Region-partitioned exact planner for metro-scale graphs.

    Args:
        graph: the :class:`~repro.buildgraph.BuildingGraph` to plan
            over; a mutation listener is registered on it.
        partition: a :class:`RegionPartition` covering the graph.
        route_cache_per_region / expansion_cache_per_region: LRU bounds
            for the per-region cache shards.

    Overlays build lazily on first plan (or explicitly via
    :meth:`build_overlays`); mutations mark only touched regions dirty.
    """

    def __init__(
        self,
        graph,
        partition: RegionPartition,
        route_cache_per_region: int = DEFAULT_ROUTE_CACHE_PER_REGION,
        expansion_cache_per_region: int = DEFAULT_EXPANSION_CACHE_PER_REGION,
    ):
        self.graph = graph
        self.partition = partition
        k = len(partition)
        self._overlays: list[RegionOverlay | None] = [None] * k
        self._dirty: set[int] = set(range(k))
        self._route_shards = [
            LRUCache(maxsize=route_cache_per_region) for _ in range(k)
        ]
        self._expansion_shards = [
            LRUCache(maxsize=expansion_cache_per_region) for _ in range(k)
        ]
        # Global overlay, rebuilt after overlay rebuilds: gid → building
        # / region / index in the region's ``D``, per-region gid arrays,
        # the overlay CSR, its edge count (attachments excluded) and the
        # data positions of its attachments.
        self._gid_building: list[int] = []
        self._gid_region: list[int] = []
        self._gid_local: list[int] = []
        self._region_gids: list[np.ndarray] = []
        self._overlay = csr_matrix((2, 2))
        self._overlay_edges = 0
        self._source_pos = 0
        self._target_pos = np.zeros(0, dtype=np.int64)
        self._stats = {
            "plan_calls": 0,
            "searches": 0,
            "overlay_settled": 0,
            "terminal_sssp_runs": 0,
            "expansion_runs": 0,
            "nodes_expanded": 0,
            "region_rebuilds": 0,
            "reindexes": 0,
            "overlay_build_time_s": 0.0,
        }
        graph.add_mutation_listener(self._on_mutation)

    # ------------------------------------------------------------------
    # Invalidation
    # ------------------------------------------------------------------
    def _on_mutation(self, kind: str, *ids: int) -> None:
        region_of = self.partition.region_of
        if kind == "remove":
            bid = ids[0]
            r = region_of.get(bid)
            if r is not None:
                self._dirty.add(r)
            # Fires pre-removal: the doomed building's cross-region
            # neighbours lose a border edge, so their regions dirty too.
            try:
                neighbors = self.graph.neighbors(bid)
            except KeyError:  # pragma: no cover - defensive
                neighbors = {}
            for v in neighbors:
                rv = region_of.get(v)
                if rv is not None:
                    self._dirty.add(rv)
        elif kind == "add_link":
            for bid in ids:
                r = region_of.get(bid)
                if r is not None:
                    self._dirty.add(r)
        elif kind == "add_building":
            bid = ids[0]
            r = self.partition.assign_building(
                bid, self.graph.centroid(bid), self.graph.centroid
            )
            self._dirty.add(r)
            for v in self.graph.neighbors(bid):
                rv = region_of.get(v)
                if rv is not None:
                    self._dirty.add(rv)

    def build_overlays(self) -> None:
        """Force every dirty region's overlay current (timed)."""
        self._ensure_current()

    def _ensure_current(self) -> None:
        if not self._dirty:
            return
        t0 = time.perf_counter()
        version = self.graph.version
        for r in sorted(self._dirty):
            self._overlays[r] = build_overlay(
                self.graph, self.partition, r, built_version=version
            )
            self._expansion_shards[r].clear()
            self._stats["region_rebuilds"] += 1
            _M_REBUILDS.inc()
        self._dirty.clear()
        self._reindex()
        self._stats["overlay_build_time_s"] += time.perf_counter() - t0

    def _reindex(self) -> None:
        """Rebuild the global overlay CSR from current region overlays.

        Borders get gids region by region; ``S`` is gid ``total`` and
        ``T`` is ``total + 1``.  The CSR holds no duplicate
        ``(row, col)`` (scipy would sum them): direct ``D`` entries join
        borders of one region, cross edges borders of two, and each
        attachment is added once.  Its indices are sorted, so ``S``'s
        row lists every border then ``T``, and each border row ends
        with its ``→T`` entry.
        """
        gid_building: list[int] = []
        gid_region: list[int] = []
        gid_local: list[int] = []
        region_gids: list[np.ndarray] = []
        gid_of: dict[int, int] = {}
        rows: list[np.ndarray] = []
        cols: list[np.ndarray] = []
        data: list[np.ndarray] = []
        for r, overlay in enumerate(self._overlays):
            borders = overlay.borders if overlay is not None else ()
            start = len(gid_building)
            gids = np.arange(start, start + len(borders), dtype=np.int64)
            gid_of.update(zip(borders, range(start, start + len(borders))))
            gid_building.extend(borders)
            gid_region.extend([r] * len(borders))
            gid_local.extend(range(len(borders)))
            region_gids.append(gids)
            if len(borders) > 1:
                i, j = np.nonzero(overlay.direct)
                rows.append(gids[i])
                cols.append(gids[j])
                data.append(overlay.D[i, j])
        cross_rows: list[int] = []
        cross_cols: list[int] = []
        cross_w: list[float] = []
        for overlay in self._overlays:
            if overlay is None:
                continue
            for u, v, w in overlay.cross:
                gv = gid_of.get(v)
                if gv is None:  # pragma: no cover - defensive
                    continue
                cross_rows.append(gid_of[u])
                cross_cols.append(gv)
                cross_w.append(w)
        total = len(gid_building)
        source, target = total, total + 1
        border_gids = np.arange(total, dtype=np.int64)
        rows += [
            np.asarray(cross_rows, dtype=np.int64),
            np.full(total + 1, source, dtype=np.int64),
            border_gids,
        ]
        cols += [
            np.asarray(cross_cols, dtype=np.int64),
            np.append(border_gids, target),
            np.full(total, target, dtype=np.int64),
        ]
        data += [
            np.asarray(cross_w, dtype=np.float64),
            np.full(2 * total + 1, np.inf),
        ]
        overlay_csr = csr_matrix(
            (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))),
            shape=(total + 2, total + 2),
        )
        self._gid_building = gid_building
        self._gid_region = gid_region
        self._gid_local = gid_local
        self._region_gids = region_gids
        self._overlay = overlay_csr
        self._overlay_edges = overlay_csr.nnz - (2 * total + 1)
        self._source_pos = int(overlay_csr.indptr[source])
        self._target_pos = overlay_csr.indptr[1 : total + 1].astype(np.int64) - 1
        self._stats["reindexes"] += 1

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def _region_of(self, building_id: int) -> int:
        region = self.partition.region_of.get(building_id)
        if region is None:  # pragma: no cover - listener normally covers
            region = self.partition.assign_building(
                building_id,
                self.graph.centroid(building_id),
                self.graph.centroid,
            )
            self._dirty.add(region)
            self._ensure_current()
        return region

    def plan(self, src_building: int, dst_building: int) -> list[int]:
        """Minimum-weight route, cost-identical to the flat planner.

        Raises:
            KeyError: if either endpoint is missing from the graph.
            NoRouteError: if the endpoints are on disconnected islands.
        """
        graph = self.graph
        if src_building not in graph:
            raise KeyError(src_building)
        if dst_building not in graph:
            raise KeyError(dst_building)
        self._stats["plan_calls"] += 1
        _M_PLANS.inc()
        if src_building == dst_building:
            return [src_building]
        self._ensure_current()
        src_region = self._region_of(src_building)
        shard = self._route_shards[src_region]
        key = (src_building, dst_building, graph.version)
        cached = shard.get(key)
        if cached is _NO_ROUTE:
            raise NoRouteError(
                f"no predicted path between buildings {src_building} "
                f"and {dst_building}"
            )
        if cached is not None:
            return list(cached)
        self._stats["searches"] += 1
        t0 = time.perf_counter()
        route = self._search(src_building, dst_building, src_region)
        _M_SEARCH_S.observe(time.perf_counter() - t0)
        if route is None:
            shard.put(key, _NO_ROUTE)
            raise NoRouteError(
                f"no predicted path between buildings {src_building} "
                f"and {dst_building}"
            )
        shard.put(key, tuple(route))
        return route

    def plan_routes(
        self, pairs,
    ) -> list[list[int] | None]:
        """Batched planning with flat-planner semantics.

        ``None`` marks unroutable or unknown pairs.  Each distinct pair
        is one :meth:`plan` search; repeated pairs hit the route shards
        and repeated contracted legs the expansion shards.
        """
        results: list[list[int] | None] = [None] * len(pairs)
        for i, (src, dst) in enumerate(pairs):
            try:
                results[i] = self.plan(src, dst)
            except (NoRouteError, KeyError):
                continue
        return results

    def _tree(self, overlay: RegionOverlay, row: int):
        """Full single-source tree over the region's CSR."""
        dist, pred = dijkstra(
            overlay.csr, directed=True, indices=row, return_predecessors=True
        )
        self._stats["terminal_sssp_runs"] += 1
        self._stats["nodes_expanded"] += int(np.isfinite(dist).sum())
        return dist, pred

    def _search(
        self, src: int, dst: int, src_region: int
    ) -> list[int] | None:
        dst_region = self._region_of(dst)
        src_overlay = self._overlays[src_region]
        dst_overlay = self._overlays[dst_region]
        dst_row = dst_overlay.local[dst]
        dist_src, pred_src = self._tree(src_overlay, src_overlay.local[src])
        dist_dst, pred_dst = self._tree(dst_overlay, dst_row)

        total = len(self._gid_building)
        source = total
        out_pos = self._source_pos + self._region_gids[src_region]
        in_pos = self._target_pos[self._region_gids[dst_region]]
        direct_pos = self._source_pos + total
        weights = self._overlay.data
        weights[out_pos] = dist_src[src_overlay.border_rows]
        weights[in_pos] = dist_dst[dst_overlay.border_rows]
        if src_region == dst_region:
            weights[direct_pos] = dist_src[dst_row]
        try:
            dist, pred = dijkstra(
                self._overlay,
                directed=True,
                indices=source,
                return_predecessors=True,
            )
        finally:
            weights[out_pos] = np.inf
            weights[in_pos] = np.inf
            weights[direct_pos] = np.inf
        settled = int(np.isfinite(dist[:total]).sum())
        self._stats["overlay_settled"] += settled
        _M_SETTLED.inc(settled)

        g = int(pred[total + 1])
        if g < 0:
            return None
        if g == source:
            route = tree_path(src_overlay.members, pred_src, dst_row)
            route.reverse()
            return route
        chain: list[int] = []
        while g != source:
            chain.append(g)
            g = int(pred[g])
        chain.reverse()
        return self._assemble(src_overlay, pred_src, dst_overlay, pred_dst, chain)

    def _assemble(
        self, src_overlay, pred_src, dst_overlay, pred_dst, chain
    ) -> list[int]:
        gid_building = self._gid_building
        gid_region = self._gid_region
        gid_local = self._gid_local
        route = tree_path(
            src_overlay.members, pred_src, src_overlay.local[gid_building[chain[0]]]
        )
        route.reverse()
        for g_prev, g_cur in zip(chain, chain[1:]):
            region = gid_region[g_cur]
            if gid_region[g_prev] == region:
                leg = self._expand_leg(region, gid_local[g_prev], gid_local[g_cur])
                route.extend(leg[1:])
            else:
                route.append(gid_building[g_cur])  # literal cross hop
        entry_row = dst_overlay.local[gid_building[chain[-1]]]
        # The destination tree is rooted at dst: walking it from the
        # entry border already runs entry → dst.
        route.extend(tree_path(dst_overlay.members, pred_dst, entry_row)[1:])
        return route

    def _expand_leg(self, region: int, i: int, j: int) -> list[int]:
        """Full intra-region path for the contracted edge ``D[i, j]`` (cached)."""
        overlay = self._overlays[region]
        a = overlay.borders[i]
        b = overlay.borders[j]
        shard = self._expansion_shards[region]
        cached = shard.get((a, b))
        if cached is not None:
            return list(cached)
        reverse = shard.get((b, a))
        if reverse is not None:
            leg = list(reverse)
            leg.reverse()
            shard.put((a, b), tuple(leg))
            return leg
        dist, pred = dijkstra(
            overlay.csr,
            directed=True,
            indices=overlay.border_rows[i],
            limit=overlay.D[i, j],
            return_predecessors=True,
        )
        self._stats["expansion_runs"] += 1
        self._stats["nodes_expanded"] += int(np.isfinite(dist).sum())
        row_b = overlay.border_rows[j]
        if pred[row_b] < 0:  # pragma: no cover - contracted edge implies path
            raise NoRouteError(
                f"overlay desync: contracted edge {a}->{b} in region "
                f"{region} has no intra-region path"
            )
        leg = tree_path(overlay.members, pred, row_b)
        leg.reverse()
        shard.put((a, b), tuple(leg))
        return leg

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def stats(self) -> dict[str, float]:
        """Aggregated work counters, cache accounting and overlay bytes.

        Also publishes ``metro.*`` gauges (entries and approximate
        bytes per cache family, summed over the region shards,
        ``metro.overlay.approx_bytes``: every region's ``D``, direct
        mask and CSR plus the global overlay CSR, and
        ``metro.overlay.edges``: the global CSR's direct ``D`` entries
        and cross edges) to the observability registry.
        """
        out: dict[str, float] = dict(self._stats)
        out["regions"] = len(self.partition)
        out["borders"] = len(self._gid_building)
        out["dirty_regions"] = len(self._dirty)
        for family, shards in (
            ("route_cache", self._route_shards),
            ("expansion_cache", self._expansion_shards),
        ):
            entries = sum(len(s) for s in shards)
            hits = sum(s.hits for s in shards)
            misses = sum(s.misses for s in shards)
            evictions = sum(s.evictions for s in shards)
            approx = sum(s.approx_bytes() for s in shards)
            out[f"{family}_entries"] = entries
            out[f"{family}_hits"] = hits
            out[f"{family}_misses"] = misses
            out[f"{family}_evictions"] = evictions
            out[f"{family}_approx_bytes"] = approx
            REGISTRY.gauge(f"metro.{family}.entries").set(entries)
            REGISTRY.gauge(f"metro.{family}.approx_bytes").set(approx)
        overlay = self._overlay
        overlay_bytes = sum(
            o.nbytes() for o in self._overlays if o is not None
        ) + int(overlay.data.nbytes + overlay.indices.nbytes + overlay.indptr.nbytes)
        out["overlay_approx_bytes"] = overlay_bytes
        REGISTRY.gauge("metro.overlay.approx_bytes").set(overlay_bytes)
        out["overlay_edges"] = self._overlay_edges
        REGISTRY.gauge("metro.overlay.edges").set(self._overlay_edges)
        return out

    def shard_stats(self) -> list[dict[str, float]]:
        """Per-region cache and overlay detail (bench reporting)."""
        rows: list[dict[str, float]] = []
        for r in range(len(self.partition)):
            overlay = self._overlays[r]
            rows.append(
                {
                    "region": r,
                    "members": len(overlay) if overlay is not None else 0,
                    "borders": len(overlay.borders)
                    if overlay is not None
                    else 0,
                    "overlay_bytes": overlay.nbytes() if overlay is not None else 0,
                    "route_entries": len(self._route_shards[r]),
                    "route_hits": self._route_shards[r].hits,
                    "route_approx_bytes": self._route_shards[r].approx_bytes(),
                    "expansion_entries": len(self._expansion_shards[r]),
                }
            )
        return rows

    def reset_stats(self) -> None:
        """Zero the work counters and per-shard cache counters."""
        for k in self._stats:
            self._stats[k] = 0 if isinstance(self._stats[k], int) else 0.0
        for shards in (self._route_shards, self._expansion_shards):
            for s in shards:
                s.reset_counters()


def attach_hierarchy(
    graph,
    target_region_size: int = DEFAULT_REGION_SIZE,
    n_regions: int | None = None,
    block_size: float | None = None,
    seed: int = 0,
    **router_kwargs,
) -> MetroRouter:
    """Partition ``graph`` and attach a :class:`MetroRouter` to it.

    Sets ``graph.hierarchy`` so routing layers
    (:class:`repro.core.BuildingRouter`) dispatch through the
    hierarchy automatically.  Overlays build lazily on first plan;
    call :meth:`MetroRouter.build_overlays` to front-load the cost.
    """
    from .partition import DEFAULT_BLOCK_SIZE

    partition = partition_regions(
        graph,
        target_region_size=target_region_size,
        n_regions=n_regions,
        block_size=block_size if block_size is not None else DEFAULT_BLOCK_SIZE,
        seed=seed,
    )
    router = MetroRouter(graph, partition, **router_kwargs)
    graph.hierarchy = router
    return router


__all__ = [
    "DEFAULT_REGION_SIZE",
    "MetroRouter",
    "attach_hierarchy",
]
