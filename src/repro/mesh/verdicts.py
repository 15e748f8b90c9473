"""Per-building rebroadcast verdicts, gathered onto a mesh's APs.

A stateless policy decides from the AP's building footprint, so its
``verdict_mask`` is one verdict per building gathered by footprint row.
Caches live on the domain objects: ``City._polygon_columns``,
``City._verdict_mask_cache`` (capped, keyed by ``ConduitPath`` value)
and ``APGraph._columnar_building_rows``.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..geometry import ConduitPath, Polygon, PolygonColumns, path_overlap_mask

#: Cached building masks per city: a scenario run's paths and replans fit.
_VERDICT_CACHE_CAP = 256


def city_columns(city) -> tuple[PolygonColumns, list, dict[int, int]]:
    """The city's footprints as (columns, polygons, building-id -> row)."""
    cached = getattr(city, "_polygon_columns", None)
    if cached is None:
        polygons = [b.polygon for b in city.buildings]
        row_of = {b.id: i for i, b in enumerate(city.buildings)}
        cached = city._polygon_columns = (PolygonColumns(polygons), polygons, row_of)
    return cached


def building_rows(graph, city) -> np.ndarray:
    """Footprint row index per AP, cached per (graph, city)."""
    cached = getattr(graph, "_columnar_building_rows", None)
    if cached is not None and cached[0] is city:
        return cached[1]
    row_of = city_columns(city)[2]
    rows = np.fromiter(
        (row_of[b] for b in graph.building_id_list()), dtype=np.int64, count=len(graph)
    )
    graph._columnar_building_rows = (city, rows)
    return rows


def conduit_mask(graph, city, conduits: ConduitPath) -> np.ndarray:
    """``conduits.intersects_polygon(footprint)`` per AP, as a new array."""
    cols, polygons, _row_of = city_columns(city)
    cache = getattr(city, "_verdict_mask_cache", None)
    if cache is None:
        cache = city._verdict_mask_cache = {}
    per_building = cache.get(conduits)
    if per_building is None:
        per_building = path_overlap_mask(cols, conduits, polygons=polygons)
        if len(cache) >= _VERDICT_CACHE_CAP:
            cache.clear()
        cache[conduits] = per_building
    return per_building[building_rows(graph, city)]


def footprint_mask(graph, city, predicate: Callable[[Polygon], bool]) -> np.ndarray:
    """``predicate(footprint)`` per AP, asked once per building with an AP."""
    rows = building_rows(graph, city)
    polygons = city_columns(city)[1]
    per_building = np.zeros(len(polygons), dtype=bool)
    for row in np.unique(rows).tolist():
        per_building[row] = predicate(polygons[row])
    return per_building[rows]
