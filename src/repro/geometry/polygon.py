"""Simple polygons: building footprints and obstacle shapes.

Polygons are stored as an ordered vertex ring (no explicit closing
vertex).  They are assumed *simple* (non self-intersecting); building
footprints produced by :mod:`repro.city` and parsed by
:mod:`repro.osm` always satisfy this.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, field
from typing import Iterator, Sequence

from .point import Point
from .segment import Segment


@dataclass(frozen=True)
class Polygon:
    """A simple planar polygon defined by its vertex ring."""

    vertices: tuple[Point, ...]
    _bbox: tuple[float, float, float, float] = field(
        init=False, repr=False, compare=False, default=None  # type: ignore[assignment]
    )

    def __init__(self, vertices: Sequence[Point]):
        pts = tuple(vertices)
        if len(pts) < 3:
            raise ValueError(f"polygon needs at least 3 vertices, got {len(pts)}")
        # Drop an explicit closing vertex if the caller supplied one.
        if pts[0] == pts[-1] and len(pts) > 3:
            pts = pts[:-1]
        object.__setattr__(self, "vertices", pts)
        xs = [p.x for p in pts]
        ys = [p.y for p in pts]
        object.__setattr__(self, "_bbox", (min(xs), min(ys), max(xs), max(ys)))

    # ------------------------------------------------------------------
    # Basic measures
    # ------------------------------------------------------------------
    @property
    def bbox(self) -> tuple[float, float, float, float]:
        """Axis-aligned bounding box ``(min_x, min_y, max_x, max_y)``."""
        return self._bbox

    def signed_area(self) -> float:
        """Shoelace signed area (positive for counter-clockwise rings)."""
        total = 0.0
        verts = self.vertices
        n = len(verts)
        for i in range(n):
            a = verts[i]
            b = verts[(i + 1) % n]
            total += a.cross(b)
        return total / 2.0

    def area(self) -> float:
        """Unsigned polygon area in square metres."""
        return abs(self.signed_area())

    def perimeter(self) -> float:
        """Total edge length in metres."""
        return sum(seg.length() for seg in self.edges())

    def centroid(self) -> Point:
        """Area centroid of the polygon.

        Falls back to the vertex mean for (near-)degenerate polygons.
        """
        a = self.signed_area()
        if abs(a) < 1e-12:
            n = len(self.vertices)
            return Point(
                sum(p.x for p in self.vertices) / n,
                sum(p.y for p in self.vertices) / n,
            )
        cx = 0.0
        cy = 0.0
        verts = self.vertices
        n = len(verts)
        for i in range(n):
            p = verts[i]
            q = verts[(i + 1) % n]
            w = p.cross(q)
            cx += (p.x + q.x) * w
            cy += (p.y + q.y) * w
        return Point(cx / (6.0 * a), cy / (6.0 * a))

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def edges(self) -> Iterator[Segment]:
        """Iterate over the polygon's edges in ring order."""
        verts = self.vertices
        n = len(verts)
        for i in range(n):
            yield Segment(verts[i], verts[(i + 1) % n])

    def contains(self, p: Point) -> bool:
        """Point-in-polygon test: ray casting, or within 1e-9 of an edge.

        Both tests are pure, so the order is free: the cheap ray cast
        runs first and the boundary pass only for points it puts outside.
        """
        min_x, min_y, max_x, max_y = self._bbox
        if not (min_x <= p.x <= max_x and min_y <= p.y <= max_y):
            return False
        inside = False
        verts = self.vertices
        n = len(verts)
        j = n - 1
        for i in range(n):
            vi = verts[i]
            vj = verts[j]
            if (vi.y > p.y) != (vj.y > p.y):
                x_cross = vj.x + (p.y - vj.y) * (vi.x - vj.x) / (vi.y - vj.y)
                if p.x < x_cross:
                    inside = not inside
            j = i
        return inside or any(seg.distance_to_point(p) < 1e-9 for seg in self.edges())

    def distance_to_point(self, p: Point) -> float:
        """Distance from ``p`` to the polygon (0 if inside)."""
        if self.contains(p):
            return 0.0
        return min(seg.distance_to_point(p) for seg in self.edges())

    def distance_to_polygon(self, other: "Polygon") -> float:
        """Minimum distance between two polygons (0 when overlapping)."""
        if self.contains(other.vertices[0]) or other.contains(self.vertices[0]):
            return 0.0
        best = math.inf
        for sa in self.edges():
            for sb in other.edges():
                d = sa.distance_to_segment(sb)
                if d == 0.0:
                    return 0.0
                if d < best:
                    best = d
        return best

    def intersects_segment(self, seg: Segment) -> bool:
        """Whether a segment crosses (or touches / lies inside) the polygon."""
        if self.contains(seg.a) or self.contains(seg.b):
            return True
        return any(edge.intersects(seg) for edge in self.edges())

    # ------------------------------------------------------------------
    # Sampling and transforms
    # ------------------------------------------------------------------
    def random_point_inside(self, rng: random.Random, max_tries: int = 1000) -> Point:
        """Uniform rejection-sample a point strictly inside the polygon.

        Raises:
            RuntimeError: if sampling fails after ``max_tries`` attempts
                (only plausible for degenerate slivers).
        """
        min_x, min_y, max_x, max_y = self._bbox
        for _ in range(max_tries):
            p = Point(rng.uniform(min_x, max_x), rng.uniform(min_y, max_y))
            if self.contains(p):
                return p
        raise RuntimeError("failed to sample a point inside polygon")

    def translated(self, dx: float, dy: float) -> "Polygon":
        """A copy of the polygon shifted by ``(dx, dy)``."""
        return Polygon([Point(p.x + dx, p.y + dy) for p in self.vertices])

    def scaled(self, factor: float, about: Point | None = None) -> "Polygon":
        """A copy scaled by ``factor`` about ``about`` (default: centroid)."""
        c = about if about is not None else self.centroid()
        return Polygon([c + (p - c) * factor for p in self.vertices])

    @staticmethod
    def rectangle(min_x: float, min_y: float, max_x: float, max_y: float) -> "Polygon":
        """Axis-aligned rectangle polygon (counter-clockwise ring)."""
        if max_x <= min_x or max_y <= min_y:
            raise ValueError("rectangle extents must be positive")
        return Polygon(
            [
                Point(min_x, min_y),
                Point(max_x, min_y),
                Point(max_x, max_y),
                Point(min_x, max_y),
            ]
        )

    @staticmethod
    def regular(center: Point, radius: float, sides: int, rotation: float = 0.0) -> "Polygon":
        """Regular polygon with ``sides`` vertices on a circle."""
        if sides < 3:
            raise ValueError("a polygon needs at least 3 sides")
        if radius <= 0:
            raise ValueError("radius must be positive")
        return Polygon(
            [
                Point(
                    center.x + radius * math.cos(rotation + 2 * math.pi * i / sides),
                    center.y + radius * math.sin(rotation + 2 * math.pi * i / sides),
                )
                for i in range(sides)
            ]
        )
