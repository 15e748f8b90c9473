"""The map-derived building graph (§3 step 1) — performance-engineered.

Vertices are buildings; an edge predicts that two buildings' APs can
hear each other, which the paper approximates from the map alone:
footprint-to-footprint distance at most the transmission range (minus a
configurable safety margin).  Edge weights are centroid distance raised
to ``weight_exponent`` (3.0 in the paper, so routes prefer many short
hops through dense blocks over single long leaps across sparse ones).

Construction never scans all O(n²) building pairs: centroids go into
the existing :class:`repro.geometry.GridIndex` spatial hash and each
building only examines the O(1)-cell neighbourhood that could possibly
be in range.  A cheap bbox-gap lower bound prunes most candidates
before the exact polygon distance is computed.

Planning runs :func:`scipy.sparse.csgraph.dijkstra` over one CSR per
graph :attr:`~BuildingGraph.version`, built lazily on the first search
after a mutation (never inside the mutation itself).  Rows are
buildings in ascending id order and column indices are sorted, so a
route depends on the graph alone, not on the order its edges were
added or removed.  A bounded LRU route cache keyed by
``(src, dst, graph version)`` sits in front, and batched many-to-many
planning reuses one tree per distinct source.  All work counters are
surfaced through :meth:`BuildingGraph.stats` so benchmarks can regress
on *work done*, not just wall time.
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np
from scipy.sparse import csr_matrix

from ..geometry import GridIndex, Point, Polygon
from ..obs import REGISTRY
from .lru import LRUCache
from .planner import NoRouteError, shortest_routes

# Registry instruments, resolved once at import: the per-call cost of
# publishing is a single attribute add, cheap enough for the plan()
# hot path (the search timer only fires on cache misses, which are
# dominated by the search itself).
_M_BUILDS = REGISTRY.counter("buildgraph.builds")
_M_BUILD_S = REGISTRY.timer("buildgraph.build_s")
_M_PLAN_CALLS = REGISTRY.counter("buildgraph.plan_calls")
_M_SEARCH_S = REGISTRY.timer("buildgraph.route_search_s")
_M_EXPANDED = REGISTRY.counter("buildgraph.nodes_expanded")
_M_INVALIDATIONS = REGISTRY.counter("buildgraph.cache_invalidations")

if TYPE_CHECKING:  # pragma: no cover - typing only, keeps import light
    from ..city import Building, City

# The paper's evaluation settings (mirrors repro.mesh defaults).
DEFAULT_TRANSMISSION_RANGE = 50.0  # metres
DEFAULT_WEIGHT_EXPONENT = 3.0
DEFAULT_AP_DENSITY = 1.0 / 200.0  # APs per m^2 of building area
DEFAULT_ROUTE_CACHE_SIZE = 4096
# Density-derived connectivity margin: at density rho the mean
# nearest-AP spacing scales as 1/sqrt(rho), so the predictor backs the
# range off by that much before calling a footprint gap "connected"
# (DESIGN.md key decision 2; the calibration experiment quantifies it).
MARGIN_COEFFICIENT = 0.7

# Sentinel cached for pairs proven unroutable, so repeatedly asking for
# a cross-island route (common on river-split cities) stays O(1) too.
_NO_ROUTE = object()


def _bbox_gap(a: tuple[float, float, float, float],
              b: tuple[float, float, float, float]) -> float:
    """Distance between two axis-aligned boxes (0 when overlapping).

    A lower bound on the polygon-to-polygon distance, used to prune
    edge candidates before the exact O(edges²) segment test.
    """
    dx = max(b[0] - a[2], a[0] - b[2], 0.0)
    dy = max(b[1] - a[3], a[1] - b[3], 0.0)
    return math.hypot(dx, dy)


def _pt_seg_sq(px: float, py: float,
               ax: float, ay: float, bx: float, by: float) -> float:
    """Squared distance from point (px, py) to segment (a, b).

    Flat-float version of ``Segment.distance_to_point`` — the build
    hot loop calls this millions of times on large cities, so no
    intermediate Point objects and no sqrt.
    """
    dx = bx - ax
    dy = by - ay
    denom = dx * dx + dy * dy
    if denom > 0.0:
        t = ((px - ax) * dx + (py - ay) * dy) / denom
        if t < 0.0:
            t = 0.0
        elif t > 1.0:
            t = 1.0
        ax += t * dx
        ay += t * dy
    ex = px - ax
    ey = py - ay
    return ex * ex + ey * ey


def _segments_cross(ax, ay, bx, by, cx, cy, dx, dy) -> bool:
    """Proper-crossing test for segments (a,b) and (c,d)."""
    d1 = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    d2 = (bx - ax) * (dy - ay) - (by - ay) * (dx - ax)
    d3 = (dx - cx) * (ay - cy) - (dy - cy) * (ax - cx)
    d4 = (dx - cx) * (by - cy) - (dy - cy) * (bx - cx)
    return (d1 > 0) != (d2 > 0) and (d3 > 0) != (d4 > 0)


def _gap_within(ring_a: tuple[tuple[float, float], ...], poly_a: Polygon,
                ring_b: tuple[tuple[float, float], ...], poly_b: Polygon,
                threshold: float) -> bool:
    """Whether two footprints are within ``threshold`` metres.

    Early-exit equivalent of ``poly_a.distance_to_polygon(poly_b) <=
    threshold``: returns True on the *first* edge pair found within
    range instead of computing the exact minimum, with a per-edge bbox
    prune in between.  For non-crossing segments the minimum distance
    is attained at an endpoint-to-segment distance, so checking the
    four endpoint distances plus a proper-crossing test per pair is
    exact, not an approximation.
    """
    bb = poly_b.bbox
    if (ring_a[0][0] >= bb[0] and ring_a[0][1] >= bb[1]
            and ring_a[0][0] <= bb[2] and ring_a[0][1] <= bb[3]):
        # A vertex of A inside B's bbox: possible overlap/containment,
        # where edge distances alone can miss a zero gap.  Rare for
        # real footprints — take the exact slow path.
        return poly_a.distance_to_polygon(poly_b) <= threshold
    ba = poly_a.bbox
    if (ring_b[0][0] >= ba[0] and ring_b[0][1] >= ba[1]
            and ring_b[0][0] <= ba[2] and ring_b[0][1] <= ba[3]):
        return poly_a.distance_to_polygon(poly_b) <= threshold
    t_sq = threshold * threshold
    bx0 = bb[0] - threshold
    by0 = bb[1] - threshold
    bx1 = bb[2] + threshold
    by1 = bb[3] + threshold
    na = len(ring_a)
    nb = len(ring_b)
    for i in range(na):
        ax, ay = ring_a[i]
        a2x, a2y = ring_a[(i + 1) % na]
        # Edge of A entirely outside B's threshold-expanded bbox?
        if ((ax < bx0 and a2x < bx0) or (ax > bx1 and a2x > bx1)
                or (ay < by0 and a2y < by0) or (ay > by1 and a2y > by1)):
            continue
        for j in range(nb):
            cx, cy = ring_b[j]
            c2x, c2y = ring_b[(j + 1) % nb]
            if (_pt_seg_sq(cx, cy, ax, ay, a2x, a2y) <= t_sq
                    or _pt_seg_sq(c2x, c2y, ax, ay, a2x, a2y) <= t_sq
                    or _pt_seg_sq(ax, ay, cx, cy, c2x, c2y) <= t_sq
                    or _pt_seg_sq(a2x, a2y, cx, cy, c2x, c2y) <= t_sq):
                return True
            if _segments_cross(ax, ay, a2x, a2y, cx, cy, c2x, c2y):
                return True
    return False


class BuildingGraph:
    """Predicted inter-building connectivity with weighted planning.

    Args:
        city: the shared map; only building footprints are consulted.
        transmission_range: symmetric AP range cutoff in metres.
        weight_exponent: edge weight is centroid distance to this power
            (1.0 = geometric shortest path, 3.0 = the paper's setting).
        ap_density: expected APs per m² (only used with
            ``min_expected_aps`` to drop buildings too small to
            plausibly host an AP).
        connectivity_margin: metres subtracted from the range before
            the footprint-gap test; a conservative sender predicts
            fewer edges than the physical cutoff.  Defaults to the
            density-derived ``0.7 / sqrt(ap_density)`` (~10 m at the
            paper's 1 AP / 200 m²): gaps near the raw range have a
            near-zero *actual* AP-link rate at realistic densities, so
            predicting them as edges would wreck precision (see the
            calibration experiment).
        min_expected_aps: buildings whose ``area * ap_density`` falls
            below this are excluded from the graph entirely.
        route_cache_size: bound on the LRU route cache.

    Raises:
        ValueError: for non-positive range/exponent/density, negative
            margin or AP floor, or a cache bound below 1.
    """

    def __init__(
        self,
        city: "City",
        transmission_range: float = DEFAULT_TRANSMISSION_RANGE,
        weight_exponent: float = DEFAULT_WEIGHT_EXPONENT,
        ap_density: float = DEFAULT_AP_DENSITY,
        connectivity_margin: float | None = None,
        min_expected_aps: float = 0.0,
        route_cache_size: int = DEFAULT_ROUTE_CACHE_SIZE,
    ):
        if transmission_range <= 0:
            raise ValueError("transmission range must be positive")
        if weight_exponent <= 0:
            raise ValueError("weight exponent must be positive")
        if ap_density <= 0:
            raise ValueError("AP density must be positive")
        if connectivity_margin is None:
            connectivity_margin = min(
                MARGIN_COEFFICIENT / math.sqrt(ap_density), transmission_range
            )
        elif connectivity_margin < 0:
            raise ValueError("connectivity margin must be non-negative")
        if min_expected_aps < 0:
            raise ValueError("min expected APs must be non-negative")
        self.city = city
        self.transmission_range = float(transmission_range)
        self.weight_exponent = float(weight_exponent)
        self.ap_density = float(ap_density)
        self.connectivity_margin = float(connectivity_margin)
        self.min_expected_aps = float(min_expected_aps)

        self._adjacency: dict[int, dict[int, float]] = {}
        self._centroids: dict[int, Point] = {}
        self._polygons: dict[int, Polygon] = {}
        self._rings: dict[int, tuple[tuple[float, float], ...]] = {}
        self._radii: dict[int, float] = {}
        self._max_radius = 0.0
        self._version = 0
        self._route_cache: LRUCache = LRUCache(maxsize=route_cache_size)
        # Mutation listeners: called with fine-grained change events so
        # layered structures (the hierarchical overlay) can invalidate
        # only the regions a patch touched instead of everything.
        self._listeners: list = []
        #: Attached hierarchy router (set by
        #: ``repro.buildgraph.hierarchy.attach_hierarchy``); consumers
        #: like :class:`repro.core.BuildingRouter` plan through it
        #: when present.
        self.hierarchy = None
        # ``(version, ids, matrix)`` of the last CSR built (see csr()).
        self._csr: tuple[int, tuple[int, ...], csr_matrix] | None = None
        self._stats = {
            "builds": 0,
            "build_time_s": 0.0,
            "build_candidates_checked": 0,
            "build_exact_distance_checks": 0,
            "plan_calls": 0,
            "sssp_runs": 0,
            "nodes_expanded": 0,
        }
        self._build()

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def _edge_threshold(self) -> float:
        return self.transmission_range - self.connectivity_margin

    def _build(self) -> None:
        """Predict every edge via the spatial hash (never all pairs)."""
        t0 = time.perf_counter()
        threshold = self._edge_threshold()
        adjacency = self._adjacency
        centroids = self._centroids
        polygons = self._polygons
        rings = self._rings
        radii = self._radii
        for b in self.city.buildings:
            if b.area() * self.ap_density < self.min_expected_aps:
                continue
            c = b.centroid()
            adjacency[b.id] = {}
            centroids[b.id] = c
            polygons[b.id] = b.polygon
            rings[b.id] = tuple((v.x, v.y) for v in b.polygon.vertices)
            radii[b.id] = max((c.distance_to(v) for v in b.polygon.vertices),
                              default=0.0)
        self._max_radius = max(radii.values(), default=0.0)
        self._index: GridIndex[int] = GridIndex(cell_size=max(threshold, 1.0))
        for bid, c in centroids.items():
            self._index.insert(bid, c)
        if threshold >= 0:
            exponent = self.weight_exponent
            candidates = 0
            exact = 0
            for bid, c in centroids.items():
                # Two footprints with gap <= threshold have centroids no
                # farther apart than threshold + both footprint radii.
                reach = threshold + radii[bid] + self._max_radius
                for other in self._index.query_radius(c, reach):
                    if other <= bid:  # each unordered pair exactly once
                        continue
                    candidates += 1
                    box_a = polygons[bid].bbox
                    box_b = polygons[other].bbox
                    if _bbox_gap(box_a, box_b) > threshold:
                        continue
                    exact += 1
                    if not _gap_within(rings[bid], polygons[bid],
                                       rings[other], polygons[other], threshold):
                        continue
                    d = c.distance_to(centroids[other])
                    w = d ** exponent
                    adjacency[bid][other] = w
                    adjacency[other][bid] = w
            self._stats["build_candidates_checked"] += candidates
            self._stats["build_exact_distance_checks"] += exact
        self._stats["builds"] += 1
        build_s = time.perf_counter() - t0
        self._stats["build_time_s"] += build_s
        _M_BUILDS.inc()
        _M_BUILD_S.observe(build_s)

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def __contains__(self, building_id: int) -> bool:
        return building_id in self._adjacency

    def __len__(self) -> int:
        return len(self._adjacency)

    def __iter__(self) -> Iterator[int]:
        return iter(self._adjacency)

    def node_count(self) -> int:
        """Number of buildings participating in the graph."""
        return len(self._adjacency)

    def edge_count(self) -> int:
        """Number of undirected predicted links."""
        return sum(len(nbrs) for nbrs in self._adjacency.values()) // 2

    def degree(self, building_id: int) -> int:
        """Number of predicted neighbours of one building."""
        return len(self._adjacency[building_id])

    def mean_degree(self) -> float:
        """Average degree (0 for an empty graph)."""
        if not self._adjacency:
            return 0.0
        return sum(len(nbrs) for nbrs in self._adjacency.values()) / len(self._adjacency)

    def neighbors(self, building_id: int) -> dict[int, float]:
        """``{neighbor id: edge weight}`` — a read-only view; do not mutate.

        Raises:
            KeyError: if the building is not in the graph.
        """
        return self._adjacency[building_id]

    def centroid(self, building_id: int) -> Point:
        """The routing anchor (footprint centroid) of a building.

        Raises:
            KeyError: if the building is not in the graph.
        """
        return self._centroids[building_id]

    @property
    def version(self) -> int:
        """Monotone counter bumped on every mutation; keys the cache."""
        return self._version

    # ------------------------------------------------------------------
    # Mutation (explicit cache invalidation)
    # ------------------------------------------------------------------
    def add_mutation_listener(self, listener) -> None:
        """Subscribe to fine-grained mutation events.

        ``listener(kind, *ids)`` fires with kind ``"remove"`` (before
        the building leaves, so the listener can still inspect its
        edges), ``"add_link"`` (after the edge lands), or
        ``"add_building"`` (after insertion).  Listeners must not
        mutate the graph.
        """
        self._listeners.append(listener)

    def _notify(self, kind: str, *ids: int) -> None:
        for listener in self._listeners:
            listener(kind, *ids)

    def _mutated(self) -> None:
        self._version += 1
        self._route_cache.clear()
        _M_INVALIDATIONS.inc()

    def _remove_building_no_bump(self, building_id: int) -> None:
        if self._listeners and building_id in self._adjacency:
            self._notify("remove", building_id)
        neighbors = self._adjacency.pop(building_id)
        for n in neighbors:
            del self._adjacency[n][building_id]
        del self._centroids[building_id]
        del self._polygons[building_id]
        del self._rings[building_id]
        del self._radii[building_id]
        self._index.remove(building_id)

    def remove_building(self, building_id: int) -> None:
        """Drop a building (e.g. destroyed/compromised) and its edges.

        Bumps :attr:`version` and invalidates the route cache.

        Raises:
            KeyError: if the building is not in the graph.
        """
        self._remove_building_no_bump(building_id)
        self._mutated()

    def _add_link_no_bump(
        self, building_a: int, building_b: int, weight: float | None
    ) -> None:
        if building_a == building_b:
            raise ValueError("a link needs two distinct buildings")
        if building_a not in self._adjacency:
            raise KeyError(building_a)
        if building_b not in self._adjacency:
            raise KeyError(building_b)
        if weight is None:
            d = self._centroids[building_a].distance_to(self._centroids[building_b])
            weight = d ** self.weight_exponent
        elif weight <= 0:
            raise ValueError("link weight must be positive")
        self._adjacency[building_a][building_b] = weight
        self._adjacency[building_b][building_a] = weight
        if self._listeners:
            self._notify("add_link", building_a, building_b)

    def add_link(
        self, building_a: int, building_b: int, weight: float | None = None
    ) -> None:
        """Announce a link the map alone would not predict.

        This models operator-deployed infrastructure — e.g. a chain of
        bridge APs spanning a connectivity gap — being advertised to
        senders so routes can cross it.  The weight defaults to centroid
        distance raised to ``weight_exponent``, the same formula as
        predicted edges; an existing edge's weight is overwritten.

        Bumps :attr:`version` and invalidates the route cache.

        Raises:
            KeyError: if either endpoint is missing from the graph.
            ValueError: for identical endpoints or a non-positive weight.
        """
        self._add_link_no_bump(building_a, building_b, weight)
        self._mutated()

    def patch(
        self,
        remove: Iterable[int] = (),
        add_links: Iterable[tuple[int, int]] = (),
    ) -> bool:
        """Apply one epoch's worth of mutations atomically.

        All removals and link announcements land under a **single**
        version bump (or none at all when both iterables are empty), so
        callers stepping a timeline invalidate the route/conduit caches
        exactly once per mutating step instead of once per casualty.
        Removals are applied before link announcements, so a patch may
        both demolish a neighbourhood and announce the replacement
        bridge in one step (links may not reference removed buildings).

        Returns:
            True when the graph mutated (and the version was bumped).

        Raises:
            KeyError: if a removal or link names an unknown building
                (removals already applied are not rolled back, but the
                version still bumps so caches stay coherent).
            ValueError: for a self-link.
        """
        remove = list(remove)
        add_links = list(add_links)
        if not remove and not add_links:
            return False
        try:
            for building_id in remove:
                self._remove_building_no_bump(building_id)
            for building_a, building_b in add_links:
                self._add_link_no_bump(building_a, building_b, None)
        finally:
            self._mutated()
        return True

    def add_building(self, building: "Building") -> None:
        """Insert a building and predict its edges via the spatial hash.

        Bumps :attr:`version` and invalidates the route cache.

        Raises:
            ValueError: on a duplicate id or a footprint below the
                ``min_expected_aps`` floor.
        """
        if building.id in self._adjacency:
            raise ValueError(f"building {building.id} already in graph")
        if building.area() * self.ap_density < self.min_expected_aps:
            raise ValueError(
                f"building {building.id} expects fewer than "
                f"{self.min_expected_aps} APs and would never join the graph"
            )
        c = building.centroid()
        ring = tuple((v.x, v.y) for v in building.polygon.vertices)
        radius = max((c.distance_to(v) for v in building.polygon.vertices), default=0.0)
        threshold = self._edge_threshold()
        nbrs: dict[int, float] = {}
        if threshold >= 0:
            reach = threshold + radius + self._max_radius
            for other in self._index.query_radius(c, reach):
                if _bbox_gap(building.polygon.bbox, self._polygons[other].bbox) > threshold:
                    continue
                if not _gap_within(ring, building.polygon, self._rings[other],
                                   self._polygons[other], threshold):
                    continue
                w = c.distance_to(self._centroids[other]) ** self.weight_exponent
                nbrs[other] = w
        self._adjacency[building.id] = nbrs
        for other, w in nbrs.items():
            self._adjacency[other][building.id] = w
        self._centroids[building.id] = c
        self._polygons[building.id] = building.polygon
        self._rings[building.id] = ring
        self._radii[building.id] = radius
        self._max_radius = max(self._max_radius, radius)
        self._index.insert(building.id, c)
        if self._listeners:
            self._notify("add_building", building.id)
        self._mutated()

    # ------------------------------------------------------------------
    # Planning
    # ------------------------------------------------------------------
    def csr(self) -> tuple[tuple[int, ...], csr_matrix]:
        """The weighted adjacency as ``(ids, matrix)``.

        Row and column ``i`` of ``matrix`` are building ``ids[i]``, ids
        ascending, and entry ``(i, j)`` is the edge weight; column
        indices are sorted.  Built on the first call at each
        :attr:`version` and shared until the next mutation: treat it
        as read-only (copy ``matrix.data`` before reweighting).
        """
        if self._csr is None or self._csr[0] != self._version:
            adjacency = self._adjacency
            ids = tuple(sorted(adjacency))
            row_of = {b: i for i, b in enumerate(ids)}
            n = len(ids)
            degrees = np.fromiter(
                (len(adjacency[b]) for b in ids), dtype=np.int32, count=n
            )
            indptr = np.zeros(n + 1, dtype=np.int32)
            np.cumsum(degrees, out=indptr[1:])
            nnz = int(indptr[-1])
            indices = np.fromiter(
                (row_of[v] for b in ids for v in adjacency[b]),
                dtype=np.int32, count=nnz,
            )
            data = np.fromiter(
                (w for b in ids for w in adjacency[b].values()),
                dtype=np.float64, count=nnz,
            )
            matrix = csr_matrix((data, indices, indptr), shape=(n, n))
            matrix.sort_indices()
            self._csr = (self._version, ids, matrix)
        return self._csr[1], self._csr[2]

    def _check_endpoint(self, building_id: int) -> None:
        if building_id not in self._adjacency:
            raise KeyError(building_id)

    def _search(self, src: int, dsts: Sequence[int]) -> list[list[int] | None]:
        """One Dijkstra tree from ``src``; caches its routes to ``dsts``."""
        t0 = time.perf_counter()
        routes, settled = shortest_routes(*self.csr(), src, dsts)
        _M_SEARCH_S.observe(time.perf_counter() - t0)
        self._stats["sssp_runs"] += 1
        self._stats["nodes_expanded"] += settled
        _M_EXPANDED.inc(settled)
        for dst, route in zip(dsts, routes):
            self._route_cache.put(
                (src, dst, self._version),
                _NO_ROUTE if route is None else tuple(route),
            )
        return routes

    def plan(self, src_building: int, dst_building: int) -> list[int]:
        """Minimum-weight route between two buildings (cached).

        Cache hits are O(1); a miss runs one Dijkstra tree from
        ``src_building`` and stores the result under
        ``(src, dst, version)``.  Unroutable pairs are cached too, so
        islands stay cheap to re-ask about.

        Raises:
            KeyError: if either endpoint is missing from the graph.
            NoRouteError: if the endpoints are on disconnected islands.
        """
        self._check_endpoint(src_building)
        self._check_endpoint(dst_building)
        self._stats["plan_calls"] += 1
        _M_PLAN_CALLS.inc()
        route = self._route_cache.get((src_building, dst_building, self._version))
        if route is None:
            route = self._search(src_building, [dst_building])[0] or _NO_ROUTE
        if route is _NO_ROUTE:
            raise NoRouteError(
                f"no predicted path between buildings {src_building} "
                f"and {dst_building}"
            )
        return list(route)

    def plan_routes(
        self, pairs: Sequence[tuple[int, int]]
    ) -> list[list[int] | None]:
        """Batched many-to-many planning, one Dijkstra tree per source.

        Pairs are grouped by source; each distinct source with at least
        one uncached destination costs exactly one single-source tree
        (``stats()['sssp_runs']``), shared across all its destinations.
        Results land in the route cache, so a later :meth:`plan` of the
        same pair is a hit.

        Returns:
            Routes aligned with ``pairs``; ``None`` marks pairs that
            are unroutable or reference unknown buildings (batch
            callers skip rather than abort — per-pair exceptions would
            kill whole experiment sweeps).
        """
        self._stats["plan_calls"] += len(pairs)
        _M_PLAN_CALLS.inc(len(pairs))
        results: list[list[int] | None] = [None] * len(pairs)
        version = self._version
        pending: dict[int, list[int]] = {}
        for i, (src, dst) in enumerate(pairs):
            if src not in self._adjacency or dst not in self._adjacency:
                continue
            cached = self._route_cache.get((src, dst, version))
            if cached is _NO_ROUTE:
                continue
            if cached is not None:
                results[i] = list(cached)
                continue
            pending.setdefault(src, []).append(i)
        for src, indices in pending.items():
            routes = self._search(src, [pairs[i][1] for i in indices])
            for i, route in zip(indices, routes):
                results[i] = route
        return results

    # ------------------------------------------------------------------
    # Cache control and perf counters
    # ------------------------------------------------------------------
    def clear_route_cache(self) -> None:
        """Drop every cached route (counters are kept)."""
        self._route_cache.clear()

    def stats(self) -> dict[str, float]:
        """Work counters for perf regression (not wall-clock proxies).

        Includes build cost (spatial-hash candidates examined, exact
        polygon-distance checks, seconds), planner work (Dijkstra
        trees run, total finite distances across them) and the route
        cache's hit/miss/eviction counts.
        """
        out: dict[str, float] = dict(self._stats)
        out["nodes"] = self.node_count()
        out["edges"] = self.edge_count()
        out["version"] = self._version
        for k, v in self._route_cache.counters().items():
            out[f"route_cache_{k}"] = v
        approx = self._route_cache.approx_bytes()
        out["route_cache_approx_bytes"] = approx
        REGISTRY.gauge("buildgraph.route_cache.entries").set(len(self._route_cache))
        REGISTRY.gauge("buildgraph.route_cache.approx_bytes").set(approx)
        return out

    def reset_stats(self) -> None:
        """Zero every work counter (graph shape counters are derived)."""
        for k in self._stats:
            self._stats[k] = 0 if isinstance(self._stats[k], int) else 0.0
        self._route_cache.reset_counters()
