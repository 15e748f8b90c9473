"""Line-segment math used by conduit tests and polygon distances."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .point import Point


@dataclass(frozen=True, slots=True)
class Segment:
    """A directed line segment from ``a`` to ``b``."""

    a: Point
    b: Point

    def length(self) -> float:
        """Euclidean length of the segment."""
        return self.a.distance_to(self.b)

    def direction(self) -> Point:
        """Unit vector from ``a`` towards ``b``.

        Raises:
            ValueError: if the segment is degenerate (zero length).
        """
        return (self.b - self.a).normalized()

    def project_param(self, p: Point) -> float:
        """Parameter ``t`` of the orthogonal projection of ``p``.

        ``t`` is in segment-lengths: 0 at ``a``, 1 at ``b``.  Values
        outside [0, 1] mean the projection falls beyond an endpoint.
        For a degenerate segment the parameter is defined as 0.
        """
        d = self.b - self.a
        denom = d.norm_sq()
        if denom == 0.0:
            return 0.0
        return (p - self.a).dot(d) / denom

    def point_at(self, t: float) -> Point:
        """The point at parameter ``t`` along the (infinite) line."""
        return self.a.lerp(self.b, t)

    def closest_point_to(self, p: Point) -> Point:
        """The closest point on the segment (clamped to endpoints)."""
        t = min(1.0, max(0.0, self.project_param(p)))
        return self.point_at(t)

    def distance_to_point(self, p: Point) -> float:
        """Distance from ``p`` to the nearest point on the segment."""
        return self.closest_point_to(p).distance_to(p)

    def intersects(self, other: "Segment") -> bool:
        """Whether two segments intersect (including touching)."""
        d1 = _orient(other.a, other.b, self.a)
        d2 = _orient(other.a, other.b, self.b)
        d3 = _orient(self.a, self.b, other.a)
        d4 = _orient(self.a, self.b, other.b)
        if ((d1 > 0) != (d2 > 0)) and ((d3 > 0) != (d4 > 0)) and d1 != 0 and d2 != 0 and d3 != 0 and d4 != 0:
            return True
        if d1 == 0 and _on_segment(other.a, other.b, self.a):
            return True
        if d2 == 0 and _on_segment(other.a, other.b, self.b):
            return True
        if d3 == 0 and _on_segment(self.a, self.b, other.a):
            return True
        if d4 == 0 and _on_segment(self.a, self.b, other.b):
            return True
        return False

    def distance_to_segment(self, other: "Segment") -> float:
        """Minimum distance between two segments (0 when they intersect)."""
        if self.intersects(other):
            return 0.0
        return min(
            self.distance_to_point(other.a),
            self.distance_to_point(other.b),
            other.distance_to_point(self.a),
            other.distance_to_point(self.b),
        )


def _orient(a: Point, b: Point, c: Point) -> float:
    """Signed area orientation of the triangle (a, b, c)."""
    return (b - a).cross(c - a)


def _on_segment(a: Point, b: Point, p: Point) -> bool:
    """Whether collinear point ``p`` lies within the bbox of (a, b)."""
    return (
        min(a.x, b.x) - 1e-12 <= p.x <= max(a.x, b.x) + 1e-12
        and min(a.y, b.y) - 1e-12 <= p.y <= max(a.y, b.y) + 1e-12
    )
