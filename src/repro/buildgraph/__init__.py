"""The building graph and its route planner (§3 steps 1–2).

The keystone of building routing: buildings are vertices, predicted
AP connectivity (footprint gap within transmission range) gives edges,
and cubed-centroid-distance weights make the planner prefer dense
blocks of short hops.  Engineered for the hot path:

- graph construction via the :class:`repro.geometry.GridIndex`
  spatial hash (never an O(n²) all-pairs scan),
- one shortest-path engine: :func:`scipy.sparse.csgraph.dijkstra`
  over a CSR built once per graph version, rows in ascending building
  id order and sorted columns, so routes are history-independent,
- a bounded LRU route cache keyed by ``(src, dst, graph version)``
  with explicit invalidation on mutation,
- batched many-to-many planning that shares one single-source
  Dijkstra tree per source,
- work counters (``BuildingGraph.stats()``) so benchmarks regress on
  nodes expanded and cache hits, not just wall time,
- an optional metro-scale hierarchy (:mod:`.hierarchy`): region
  partitioning + border contraction so 100k+ building graphs plan in
  milliseconds, cost-identical to the flat planner.
"""

from .graph import (
    DEFAULT_AP_DENSITY,
    DEFAULT_ROUTE_CACHE_SIZE,
    DEFAULT_TRANSMISSION_RANGE,
    DEFAULT_WEIGHT_EXPONENT,
    BuildingGraph,
)
from .hierarchy import (
    DEFAULT_REGION_SIZE,
    MetroRouter,
    RegionPartition,
    attach_hierarchy,
    partition_regions,
)
from .lru import LRUCache
from .planner import NoRouteError, plan_building_route

__all__ = [
    "BuildingGraph",
    "LRUCache",
    "MetroRouter",
    "NoRouteError",
    "RegionPartition",
    "DEFAULT_AP_DENSITY",
    "DEFAULT_REGION_SIZE",
    "DEFAULT_ROUTE_CACHE_SIZE",
    "DEFAULT_TRANSMISSION_RANGE",
    "DEFAULT_WEIGHT_EXPONENT",
    "attach_hierarchy",
    "partition_regions",
    "plan_building_route",
]
