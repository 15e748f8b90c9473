"""Route compression: buildings -> waypoints (the Figure 4 algorithm).

The planner returns an explicit building route; encoding every id would
blow up the header and over-constrain forwarding.  The compression
algorithm instead selects *waypoint buildings*: starting at the first
building, it extends a conduit of width ``W`` to the latest building in
the route such that the conduit still covers every intermediate
building it skips, then repeats from there.  The conduits traced
between consecutive waypoints become the packet's forwarding region.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import hypot

from ..geometry import ConduitPath, Point

DEFAULT_CONDUIT_WIDTH = 50.0  # metres; "comparable to the Wi-Fi range" (§3)


@dataclass(frozen=True)
class CompressedRoute:
    """The outcome of route compression.

    Attributes:
        waypoints: indices into the original route marking the
            waypoint buildings (always includes first and last).
        width: conduit width W in metres.
    """

    waypoints: tuple[int, ...]
    width: float

    @property
    def waypoint_count(self) -> int:
        return len(self.waypoints)


def compress_route(centroids: list[Point], width: float = DEFAULT_CONDUIT_WIDTH) -> CompressedRoute:
    """Select waypoint buildings along a route of building centroids.

    Implements §3 step 2: place the starting edge of the first conduit
    on the first building's centroid, find the *latest* building whose
    conduit covers all preceding buildings in the route, make it a
    waypoint, and repeat until the destination.

    "Latest" is literal: every later building is tried, not just up to
    the first failure, so a route that bends away and comes back can
    still be closed by one conduit.  Each waypoint costs one scan of
    the remaining route, and a candidate is dropped at its first
    uncovered building (on real routes usually the first or second one
    skipped), so a route of n buildings compressing to w waypoints
    costs about w * n point tests — plain float arithmetic over flat
    coordinate lists, no geometry objects.

    Exactness contract: the result equals the naive "for each j, ask
    :func:`repro.geometry.covers_all`" search.  The inner test is
    :meth:`ConduitRect.contains` written out — ``t = (v·d) / denom``,
    ``|v×d| / denom ** 0.5 <= W/2``, and the ``math.hypot`` disc when
    the route returns to the same centroid (``denom == 0``) — with the
    same operations in the same order, so the waypoints (and the header
    bytes built from them) are identical, not merely close.
    ``tests/test_core_compression.py`` holds the property.

    Args:
        centroids: centroid of each building along the planned route.
        width: conduit width W (should be comparable to the Wi-Fi
            transmission range).

    Returns:
        The selected waypoint indices (first and last always included).

    Raises:
        ValueError: for an empty route or non-positive width.
    """
    if not centroids:
        raise ValueError("cannot compress an empty route")
    if width <= 0:
        raise ValueError(f"conduit width must be positive, got {width}")
    n = len(centroids)
    xs = [p.x for p in centroids]
    ys = [p.y for p in centroids]
    half_w = width / 2.0

    waypoints = [0]
    current = 0
    while current < n - 1:
        # Find the latest j > current whose conduit covers everything
        # in between; j = current + 1 skips nothing, so it always does.
        sx = xs[current]
        sy = ys[current]
        first = current + 1
        chosen = first
        for j in range(first + 1, n):
            dx = xs[j] - sx
            dy = ys[j] - sy
            denom = dx * dx + dy * dy
            if denom == 0.0:
                # Route came back to the same centroid: disc conduit.
                for k in range(first, j):
                    if not hypot(xs[k] - sx, ys[k] - sy) <= half_w:
                        break
                else:
                    chosen = j
                continue
            root = denom**0.5
            for k in range(first, j):
                vx = xs[k] - sx
                vy = ys[k] - sy
                t = (vx * dx + vy * dy) / denom
                if t < 0.0 or t > 1.0 or not abs(vx * dy - vy * dx) / root <= half_w:
                    break
            else:
                chosen = j
        waypoints.append(chosen)
        current = chosen
    return CompressedRoute(waypoints=tuple(waypoints), width=width)


def conduits_for_waypoints(
    waypoint_centroids: list[Point], width: float
) -> ConduitPath:
    """Reconstruct the forwarding region from waypoint centroids.

    This is the AP-side operation (§3 step 3): each AP looks the
    waypoint ids up in its own map copy, rebuilds the conduits with the
    predefined width, and checks whether it falls inside.
    """
    return ConduitPath.from_waypoints(waypoint_centroids, width)


def compression_ratio(route_length: int, compressed: CompressedRoute) -> float:
    """How many route buildings each encoded waypoint stands for."""
    if compressed.waypoint_count == 0:
        raise ValueError("compressed route has no waypoints")
    return route_length / compressed.waypoint_count
