"""Uniform-grid spatial hash for radius queries over many points.

Building a unit-disk AP graph naively is O(n^2); with hundreds of
thousands of APs per city that is unusable.  ``GridIndex`` buckets
points into square cells of side ``cell_size`` so that a radius query
touches only the O(1) neighbouring cells.
"""

from __future__ import annotations

import math
import sys
from collections import defaultdict
from typing import Generic, Hashable, Iterable, Iterator, TypeVar

from .point import Point

K = TypeVar("K", bound=Hashable)

#: ``distance_to(center) <= radius`` is decided on rounded floats, so a
#: point can pass it while sitting a few ulps outside
#: ``center ± radius``.  Summed over the subtraction, the hypot and the
#: two divisions by ``cell_size`` that is under 3 epsilon relative to
#: ``|center| + radius``; 4 leaves margin.
_BOUND_SLACK = 4.0 * sys.float_info.epsilon


class GridIndex(Generic[K]):
    """A spatial hash mapping keys to planar positions.

    Args:
        cell_size: grid cell side length in metres.  For unit-disk
            queries of radius ``r`` the sweet spot is ``cell_size == r``.
    """

    def __init__(self, cell_size: float):
        if cell_size <= 0:
            raise ValueError(f"cell_size must be positive, got {cell_size}")
        self.cell_size = cell_size
        self._cells: dict[tuple[int, int], list[K]] = defaultdict(list)
        self._positions: dict[K, Point] = {}

    def __len__(self) -> int:
        return len(self._positions)

    def __contains__(self, key: K) -> bool:
        return key in self._positions

    def _cell_of(self, p: Point) -> tuple[int, int]:
        return (math.floor(p.x / self.cell_size), math.floor(p.y / self.cell_size))

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, key: K, position: Point) -> None:
        """Insert (or move) ``key`` at ``position``."""
        if key in self._positions:
            self.remove(key)
        self._positions[key] = position
        self._cells[self._cell_of(position)].append(key)

    def remove(self, key: K) -> None:
        """Remove ``key`` from the index.

        Raises:
            KeyError: if the key is not present.
        """
        position = self._positions.pop(key)
        cell = self._cell_of(position)
        bucket = self._cells[cell]
        bucket.remove(key)
        if not bucket:
            del self._cells[cell]

    def extend(self, items: Iterable[tuple[K, Point]]) -> None:
        """Bulk-insert ``(key, position)`` pairs."""
        for key, position in items:
            self.insert(key, position)

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def position_of(self, key: K) -> Point:
        """The stored position of ``key``."""
        return self._positions[key]

    def items(self) -> Iterator[tuple[K, Point]]:
        """Iterate over all ``(key, position)`` pairs."""
        return iter(self._positions.items())

    def query_radius(self, center: Point, radius: float) -> list[K]:
        """All keys within ``radius`` (inclusive) of ``center``."""
        if radius < 0:
            raise ValueError("radius must be non-negative")
        results: list[K] = []
        cols = self._cell_span(center.x, radius)
        rows = self._cell_span(center.y, radius)
        positions = self._positions
        # hypot (not squared distance) so boundary semantics match
        # Point.distance_to exactly — squared distances underflow for
        # denormal-scale offsets and would spuriously include points.
        for cx in cols:
            for cy in rows:
                bucket = self._cells.get((cx, cy))
                if not bucket:
                    continue
                for key in bucket:
                    if positions[key].distance_to(center) <= radius:
                        results.append(key)
        return results

    def _cell_span(self, c: float, radius: float) -> range:
        """Cell indices along one axis that ``[c - radius, c + radius]`` touches.

        A side gains its neighbouring cell only when that bound lies
        within rounding of a cell boundary (see ``_BOUND_SLACK``): a
        point an ulp beyond it can still measure exactly ``radius``
        away, and then lives one cell outside the plain range.
        """
        cs = self.cell_size
        lo = (c - radius) / cs
        hi = (c + radius) / cs
        slack = (abs(c) + radius) / cs * _BOUND_SLACK
        first = math.floor(lo)
        last = math.floor(hi)
        if lo - first <= slack:
            first -= 1
        if last + 1 - hi <= slack:
            last += 1
        return range(first, last + 1)

    def query_rect(
        self, min_x: float, min_y: float, max_x: float, max_y: float
    ) -> list[K]:
        """All keys inside the axis-aligned rectangle (inclusive)."""
        results: list[K] = []
        cs = self.cell_size
        positions = self._positions
        for cx in range(math.floor(min_x / cs), math.floor(max_x / cs) + 1):
            for cy in range(math.floor(min_y / cs), math.floor(max_y / cs) + 1):
                bucket = self._cells.get((cx, cy))
                if not bucket:
                    continue
                for key in bucket:
                    p = positions[key]
                    if min_x <= p.x <= max_x and min_y <= p.y <= max_y:
                        results.append(key)
        return results

    def nearest(self, center: Point, max_radius: float = math.inf) -> K | None:
        """The key nearest to ``center`` within ``max_radius``, or None.

        Expands the search ring by one cell layer at a time, stopping as
        soon as the best candidate is provably closer than any cell not
        yet examined.
        """
        if not self._positions:
            return None
        best_key: K | None = None
        best_d = math.inf
        cs = self.cell_size
        c0 = self._cell_of(center)
        max_ring = (
            int(math.ceil(max_radius / cs)) + 1
            if math.isfinite(max_radius)
            else self._max_ring(c0)
        )
        positions = self._positions
        for ring in range(max_ring + 1):
            for cell in _ring_cells(c0, ring):
                bucket = self._cells.get(cell)
                if not bucket:
                    continue
                for key in bucket:
                    d = positions[key].distance_to(center)
                    if d < best_d:
                        best_d = d
                        best_key = key
            # Any point in a farther ring is at least (ring * cs) away.
            if best_key is not None and best_d <= ring * cs:
                break
        if best_key is None or best_d > max_radius:
            return None
        return best_key

    def _max_ring(self, c0: tuple[int, int]) -> int:
        """Ring count guaranteed to cover every occupied cell."""
        if not self._cells:
            return 0
        return max(
            max(abs(cx - c0[0]), abs(cy - c0[1])) for cx, cy in self._cells
        )


def _ring_cells(center: tuple[int, int], ring: int) -> Iterator[tuple[int, int]]:
    """Cells at Chebyshev distance exactly ``ring`` from ``center``."""
    cx, cy = center
    if ring == 0:
        yield (cx, cy)
        return
    for dx in range(-ring, ring + 1):
        yield (cx + dx, cy - ring)
        yield (cx + dx, cy + ring)
    for dy in range(-ring + 1, ring):
        yield (cx - ring, cy + dy)
        yield (cx + ring, cy + dy)
