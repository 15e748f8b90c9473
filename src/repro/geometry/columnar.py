"""Columnar (structure-of-arrays) geometry kernels.

The conduit-membership predicate — does a building footprint overlap a
conduit rectangle? — is the hottest geometric test in the system: every
broadcast evaluates it once per building on the packet's route region.
The scalar path (:meth:`repro.geometry.ConduitRect.intersects_polygon`)
walks Python ``Point`` objects edge by edge; this module evaluates the
*same* predicate for a whole conduit path against every footprint of a
city in one pass over flat numpy arrays.

How a path is evaluated
-----------------------

1. :class:`PolygonColumns` holds a uniform bucket grid over the
   footprint bounding boxes (built on first use, numpy only).  Every
   rectangle's bounding box is looked up in it at once, giving the
   (rectangle, footprint) pairs whose boxes come within
   ``_BBOX_MARGIN`` of each other — a few hundred pairs for a
   50-rectangle route over 20 000 footprints, instead of four
   city-sized comparisons per rectangle.
2. The three clauses of the scalar predicate run once each over the
   concatenated lanes of those pairs, with each rectangle's scalars
   repeated along its lanes: (A) a footprint vertex inside the
   rectangle, (B) a rectangle corner inside the footprint, (C) a
   footprint edge crossing a rectangle edge.  A pair decided by an
   earlier clause — or whose footprint another rectangle already
   claimed — is left out of the later ones.

Equivalence contract
--------------------

:func:`path_overlap_mask` is **bit-for-bit identical** to calling
``path.intersects_polygon(polygon)`` per polygon.  That holds because

- every per-rectangle scalar (corners, ``denom``, ``denom ** 0.5``) is
  computed by the *scalar* code path and gathered into the lanes, so
  ``math.hypot``/``x ** 0.5`` rounding is shared, not re-derived
  (``np.hypot``/``np.sqrt`` differ from them in the last bit about
  once in a thousand values);
- the remaining vector arithmetic (``+ - * /``, ``abs``, comparisons)
  is IEEE-754 double precision with identical expression shapes, so
  each lane reproduces the scalar result exactly.  The one exception
  is the ``np.hypot`` in the on-boundary clause, compared against
  1e-9: a last-bit difference there would need a distance within
  ~2e-25 of the threshold to matter;
- the grid lookup and the bounding-box prefilter are conservative: they
  keep every polygon whose bbox comes within ``_BBOX_MARGIN`` of the
  rectangle's bbox, a superset of anything the exact clauses (which
  use 1e-9/1e-12 boundary slop) can accept;
- degenerate (zero-length) conduit rectangles fall back to the scalar
  predicate outright: the disc test is all ``math.hypot``.

Points in one polygon
---------------------

:func:`contains_mask` is ``polygon.contains(p)`` over point columns
(AP positions, building centroids), on the same point-in-polygon lanes
as clause (B).  It is exact, not merely close: every point whose edge
distance lands within ``_HYPOT_SLOP`` of the 1e-9 boundary threshold is
re-decided by the scalar test, so the ``np.hypot`` last-bit caveat
above cannot reach its verdicts.

``tests/test_columnar_geometry.py`` holds the property suites pinning
both contracts down, including collinear/touching adversarial cases.
"""

from __future__ import annotations

from math import hypot
from typing import TYPE_CHECKING, Sequence

import numpy as np

from .point import Point

if TYPE_CHECKING:  # pragma: no cover - import cycle guard, typing only
    from .conduit import ConduitPath, ConduitRect
    from .polygon import Polygon

# Slop added around the rectangle bbox during prefiltering.  The exact
# clauses accept points up to 1e-9 (polygon boundary test) or 1e-12
# (collinear on-segment test) outside the true shapes; 1e-6 dominates
# both with room to spare and costs nothing.
_BBOX_MARGIN = 1e-6

# Half-width of the band around the 1e-9 boundary threshold inside which
# a columnar point-in-polygon verdict is re-decided by the scalar test.
# ``np.hypot`` and ``math.hypot`` differ by at most an ulp (~2e-25 at
# 1e-9), so this is wide by twelve orders of magnitude and still only
# ever catches points deliberately placed a nanometre off an edge.
_HYPOT_SLOP = 1e-12

# Upper bound on the (point, edge) lanes of one contains_mask block.
_CONTAINS_LANES = 1 << 16


def _expand(counts: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lanes for ``counts[i]`` items per owner: ``(owner, position)``.

    ``owner`` repeats ``i`` ``counts[i]`` times and ``position`` runs
    ``0..counts[i]-1`` within each owner, so ``starts[owner] + position``
    concatenates ``arange(starts[i], starts[i] + counts[i])``.
    """
    owner = np.repeat(np.arange(len(counts)), counts)
    first = np.cumsum(counts) - counts
    return owner, np.arange(len(owner)) - first[owner]


class PolygonColumns:
    """Flat arrays over a fixed sequence of polygons.

    Vertices are concatenated into ``vx``/``vy`` with CSR-style
    ``offsets`` (``offsets[i]:offsets[i+1]`` is polygon ``i``'s ring),
    plus per-polygon bounding boxes.  Edge arrays pair each vertex with
    its ring successor, so edge ``j`` of the concatenated arrays is a
    real polygon edge (rings wrap within their own slice).
    """

    __slots__ = (
        "count",
        "offsets",
        "vx",
        "vy",
        "ex",
        "ey",
        "min_x",
        "min_y",
        "max_x",
        "max_y",
        "owner",
        "_grid",
    )

    def __init__(self, polygons: Sequence["Polygon"]):
        self.count = len(polygons)
        counts = np.fromiter(
            (len(p.vertices) for p in polygons), dtype=np.int64, count=self.count
        )
        self.offsets = np.zeros(self.count + 1, dtype=np.int64)
        np.cumsum(counts, out=self.offsets[1:])
        total = int(self.offsets[-1])
        vx = np.empty(total, dtype=np.float64)
        vy = np.empty(total, dtype=np.float64)
        pos = 0
        for p in polygons:
            for v in p.vertices:
                vx[pos] = v.x
                vy[pos] = v.y
                pos += 1
        self.vx = vx
        self.vy = vy
        # Ring successor of each vertex (wrapping within each polygon):
        # shift left by one, then pull each ring's first vertex back to
        # close it.
        nxt = np.arange(1, total + 1, dtype=np.int64)
        if self.count:
            nxt[self.offsets[1:] - 1] = self.offsets[:-1]
        self.ex = vx[nxt]
        self.ey = vy[nxt]
        bboxes = np.fromiter(
            (c for p in polygons for c in p.bbox),
            dtype=np.float64,
            count=4 * self.count,
        ).reshape(self.count, 4)
        self.min_x = bboxes[:, 0]
        self.min_y = bboxes[:, 1]
        self.max_x = bboxes[:, 2]
        self.max_y = bboxes[:, 3]
        #: id of each vertex's owning polygon, aligned with ``vx``.
        self.owner = np.repeat(np.arange(self.count, dtype=np.int64), counts)
        self._grid = None

    def __len__(self) -> int:
        return self.count

    def bbox_candidates(
        self,
        min_x: np.ndarray,
        min_y: np.ndarray,
        max_x: np.ndarray,
        max_y: np.ndarray,
    ) -> tuple[np.ndarray, np.ndarray]:
        """Every (box, polygon) pair whose bounding boxes overlap.

        The boxes are arrays of equal length; the result is two aligned
        index arrays ``(box, row)``, each pair once, in no useful order.
        Closed-interval overlap, decided by the same four comparisons a
        full scan would make — the grid only narrows what they run on.
        """
        if self.count == 0 or len(min_x) == 0:
            empty = np.empty(0, dtype=np.int64)
            return empty, empty
        if self._grid is None:
            self._grid = _BBoxGrid(self)
        box, row = self._grid.lookup(min_x, min_y, max_x, max_y)
        overlap = (
            (self.max_x[row] >= min_x[box])
            & (self.min_x[row] <= max_x[box])
            & (self.max_y[row] >= min_y[box])
            & (self.min_y[row] <= max_y[box])
        )
        # A footprint spanning several cells was gathered once per cell.
        pairs = np.unique(box[overlap] * self.count + row[overlap])
        return pairs // self.count, pairs % self.count


class _BBoxGrid:
    """Uniform bucket grid over footprint bounding boxes, in CSR form.

    ``rows[starts[c]:starts[c + 1]]`` are the polygons whose bbox
    touches cell ``c`` (row-major, ``nx`` cells per row).  The cell side
    is twice the mean larger bbox side, so a typical footprint lands in
    one to four cells; it is widened when needed to keep the grid at a
    few cells per footprint however sparse the city is.
    """

    __slots__ = ("x0", "y0", "cell", "nx", "ny", "starts", "rows")

    def __init__(self, cols: PolygonColumns):
        self.x0 = float(cols.min_x.min())
        self.y0 = float(cols.min_y.min())
        extent_x = float(cols.max_x.max()) - self.x0
        extent_y = float(cols.max_y.max()) - self.y0
        sides = np.maximum(cols.max_x - cols.min_x, cols.max_y - cols.min_y)
        self.cell = max(
            2.0 * float(sides.mean()),
            max(extent_x, extent_y) / (4.0 * cols.count) ** 0.5,
        ) or 1.0
        self.nx = int(extent_x / self.cell) + 1
        self.ny = int(extent_y / self.cell) + 1
        row, cell = self._cells(cols.min_x, cols.min_y, cols.max_x, cols.max_y)
        self.rows = row[np.argsort(cell, kind="stable")]
        self.starts = np.zeros(self.nx * self.ny + 1, dtype=np.int64)
        np.cumsum(np.bincount(cell, minlength=self.nx * self.ny), out=self.starts[1:])

    def _index(self, v: np.ndarray, origin: float, n: int) -> np.ndarray:
        return np.clip(np.floor((v - origin) / self.cell), 0, n - 1).astype(np.int64)

    def _cells(self, min_x, min_y, max_x, max_y) -> tuple[np.ndarray, np.ndarray]:
        """``(box, cell)`` for every grid cell each box touches.

        Boxes are clamped to the grid, so one lying outside the city
        lands on border cells; the caller's exact comparison drops it.
        Flooring is monotone, hence two boxes that overlap always share
        a cell.
        """
        ix0 = self._index(min_x, self.x0, self.nx)
        ix1 = self._index(max_x, self.x0, self.nx)
        iy0 = self._index(min_y, self.y0, self.ny)
        iy1 = self._index(max_y, self.y0, self.ny)
        span = ix1 - ix0 + 1
        box, k = _expand(span * (iy1 - iy0 + 1))
        return box, (iy0[box] + k // span[box]) * self.nx + ix0[box] + k % span[box]

    def lookup(self, min_x, min_y, max_x, max_y) -> tuple[np.ndarray, np.ndarray]:
        """``(box, row)`` for every polygon sharing a cell with each box
        (a superset of the overlapping pairs, with repeats)."""
        box, cell = self._cells(min_x, min_y, max_x, max_y)
        starts = self.starts[cell]
        hit, k = _expand(self.starts[cell + 1] - starts)
        return box[hit], self.rows[starts[hit] + k]


def _contains_lanes(
    rect: "ConduitRect", px: np.ndarray, py: np.ndarray
) -> np.ndarray:
    """Vectorized ``rect.contains(Point(px, py))`` for a non-degenerate rect."""
    dx = rect.end.x - rect.start.x
    dy = rect.end.y - rect.start.y
    denom = dx * dx + dy * dy
    return _contains(
        rect.start.x, rect.start.y, dx, dy, denom, denom**0.5, rect.width / 2.0, px, py
    )


def _contains(sx, sy, dx, dy, denom, root, half_w, px, py) -> np.ndarray:
    """``ConduitRect.contains`` lane by lane, for non-degenerate rects.

    The rect scalars may be floats (one rect) or arrays aligned with
    ``px``/``py`` (a rect per lane).  Mirrors the scalar arithmetic
    exactly; see :func:`_rect_scalars` for where the scalars come from.
    """
    vx = px - sx
    vy = py - sy
    t = (vx * dx + vy * dy) / denom
    lateral = np.abs(vx * dy - vy * dx) / root
    return (t >= 0.0) & (t <= 1.0) & (lateral <= half_w)


def _rect_scalars(
    rects: Sequence["ConduitRect"],
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-rect scalars, one column per rect: ``(contains, corner_x, corner_y)``.

    ``contains`` has the seven rows :func:`_contains` takes (``start.x,
    start.y, dx, dy, denom, denom ** 0.5, width / 2``); ``corner_x`` and
    ``corner_y`` have four rows each, in :meth:`ConduitRect.corners`
    order and by its arithmetic written out on plain floats.  Python's
    ``**`` and ``math.hypot`` round differently from their numpy
    namesakes, so these are evaluated here, once per rect, exactly as
    the scalar predicate does — the lanes only ever gather them.
    """
    table = []
    for rect in rects:
        sx, sy = rect.start.x, rect.start.y
        ex, ey = rect.end.x, rect.end.y
        dx = ex - sx
        dy = ey - sy
        denom = dx * dx + dy * dy
        half_w = rect.width / 2.0
        norm = hypot(dx, dy)
        nx = -(dy / norm) * half_w
        ny = dx / norm * half_w
        table.append(
            (sx, sy, dx, dy, denom, denom**0.5, half_w,
             sx + nx, ex + nx, ex - nx, sx - nx,
             sy + ny, ey + ny, ey - ny, sy - ny)
        )
    columns = np.array(table, dtype=np.float64).reshape(len(rects), 15).T
    return columns[:7], columns[7:11], columns[11:]


def _point_in_polygon_lanes(
    cols: PolygonColumns, rows: np.ndarray, cx: np.ndarray, cy: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``polygon.contains(Point(cx[i], cy[i]))`` for polygon ``rows[i]``.

    Replicates the scalar test clause by clause: bbox gate, boundary
    proximity (distance to any edge < 1e-9), then even-odd ray casting.
    Returns two bool arrays aligned with ``rows``: the verdicts, and
    which tests had an edge distance within ``_HYPOT_SLOP`` of the
    1e-9 threshold — the only verdicts the ``np.hypot`` rounding could
    flip, which :func:`contains_mask` re-decides with the scalar test.
    """
    inside_bbox = (
        (cols.min_x[rows] <= cx)
        & (cx <= cols.max_x[rows])
        & (cols.min_y[rows] <= cy)
        & (cy <= cols.max_y[rows])
    )
    result = np.zeros(len(rows), dtype=bool)
    near = np.zeros(len(rows), dtype=bool)
    if not inside_bbox.any():
        return result, near
    active = rows[inside_bbox]
    # Edge lanes for the active (point, polygon) tests.
    starts = cols.offsets[active]
    test, k = _expand(cols.offsets[active + 1] - starts)
    lanes = starts[test] + k
    ax, ay = cols.vx[lanes], cols.vy[lanes]
    bx, by = cols.ex[lanes], cols.ey[lanes]
    cx = cx[inside_bbox][test]
    cy = cy[inside_bbox][test]

    # Boundary clause: Segment(a, b).distance_to_point(p) < 1e-9.
    # project_param -> clamp -> lerp -> hypot, with the scalar guard for
    # degenerate edges (denom == 0 -> t = 0).
    dx = bx - ax
    dy = by - ay
    denom = dx * dx + dy * dy
    safe = np.where(denom == 0.0, 1.0, denom)
    t = ((cx - ax) * dx + (cy - ay) * dy) / safe
    t = np.where(denom == 0.0, 0.0, t)
    t = np.minimum(1.0, np.maximum(0.0, t))
    qx = ax + (bx - ax) * t
    qy = ay + (by - ay) * t
    distance = np.hypot(qx - cx, qy - cy)
    on_boundary = distance < 1e-9
    # Ray-cast clause: (ay > cy) != (by > cy), cx < x_cross.  The scalar
    # loop pairs vertex i with its *predecessor* j; over the whole ring
    # that is the same edge set as (vertex, successor), and the
    # crossing expression is symmetric in which endpoint is "vi": it
    # divides by (vi.y - vj.y) with vi as the endpoint tested first.
    # Match it exactly: scalar vi = verts[i], vj = predecessor; our
    # (a, b) pair has b = successor(a), so vi = b, vj = a.
    toggles = (by > cy) != (ay > cy)
    denom_y = np.where(toggles, by - ay, 1.0)
    x_cross = ax + (cy - ay) * (bx - ax) / denom_y
    crossing = toggles & (cx < x_cross)

    boundary_hit = np.zeros(len(active), dtype=bool)
    boundary_hit[test[on_boundary]] = True
    cross_count = np.bincount(test[crossing], minlength=len(active))
    result[inside_bbox] = boundary_hit | ((cross_count % 2) == 1)
    near_hit = np.zeros(len(active), dtype=bool)
    near_hit[test[np.abs(distance - 1e-9) <= _HYPOT_SLOP]] = True
    near[inside_bbox] = near_hit
    return result, near


def contains_mask(polygon: "Polygon", px: np.ndarray, py: np.ndarray) -> np.ndarray:
    """``polygon.contains(Point(px[i], py[i]))`` for every point, as a bool array.

    The points inside the polygon's bounding box run through
    :func:`_point_in_polygon_lanes` in blocks of at most
    ``_CONTAINS_LANES`` (point, edge) lanes, so a city-sized point set
    never materialises a city-times-ring temporary.  A point whose
    distance to some edge lies within ``_HYPOT_SLOP`` of the 1e-9
    boundary threshold is re-decided by the scalar test: ``np.hypot``
    and ``math.hypot`` can differ in the last bit, and only there could
    that flip a verdict — so the mask equals the scalar one exactly.
    """
    out = np.zeros(len(px), dtype=bool)
    min_x, min_y, max_x, max_y = polygon.bbox
    candidates = np.flatnonzero(
        (min_x <= px) & (px <= max_x) & (min_y <= py) & (py <= max_y)
    )
    if candidates.size == 0:
        return out
    cols = PolygonColumns([polygon])
    block = max(1, _CONTAINS_LANES // len(polygon.vertices))
    for lo in range(0, candidates.size, block):
        idx = candidates[lo : lo + block]
        cx, cy = px[idx], py[idx]
        inside, near = _point_in_polygon_lanes(
            cols, np.zeros(idx.size, dtype=np.int64), cx, cy
        )
        for i in np.flatnonzero(near).tolist():
            inside[i] = polygon.contains(Point(float(cx[i]), float(cy[i])))
        out[idx] = inside
    return out


def _segments_intersect_lanes(
    p1x, p1y, p2x, p2y, q1x, q1y, q2x, q2y
) -> np.ndarray:
    """Vectorized ``Segment(p1, p2).intersects(Segment(q1, q2))``.

    Lane-for-lane replica of the scalar orientation/collinearity test,
    including the 1e-12 bbox slop of ``_on_segment``.
    """

    def orient(ax, ay, bx, by, cx, cy):
        return (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)

    def on_segment(ax, ay, bx, by, px, py):
        return (
            (np.minimum(ax, bx) - 1e-12 <= px)
            & (px <= np.maximum(ax, bx) + 1e-12)
            & (np.minimum(ay, by) - 1e-12 <= py)
            & (py <= np.maximum(ay, by) + 1e-12)
        )

    # Scalar: self = poly edge (p), other = rect edge (q);
    # d1 = orient(other.a, other.b, self.a) etc.
    d1 = orient(q1x, q1y, q2x, q2y, p1x, p1y)
    d2 = orient(q1x, q1y, q2x, q2y, p2x, p2y)
    d3 = orient(p1x, p1y, p2x, p2y, q1x, q1y)
    d4 = orient(p1x, p1y, p2x, p2y, q2x, q2y)
    proper = (
        ((d1 > 0) != (d2 > 0))
        & ((d3 > 0) != (d4 > 0))
        & (d1 != 0)
        & (d2 != 0)
        & (d3 != 0)
        & (d4 != 0)
    )
    touch = (
        ((d1 == 0) & on_segment(q1x, q1y, q2x, q2y, p1x, p1y))
        | ((d2 == 0) & on_segment(q1x, q1y, q2x, q2y, p2x, p2y))
        | ((d3 == 0) & on_segment(p1x, p1y, p2x, p2y, q1x, q1y))
        | ((d4 == 0) & on_segment(p1x, p1y, p2x, p2y, q2x, q2y))
    )
    return proper | touch


def _rects_overlap_mask(
    cols: PolygonColumns, rects: Sequence["ConduitRect"]
) -> np.ndarray:
    """OR over ``rects`` of ``rect.intersects_polygon(p)``, per polygon.

    Every rect must be non-degenerate.  All of them are evaluated
    together: one candidate lookup, then each clause once over the
    lanes of every (rect, polygon) pair still undecided (``leg`` and
    ``row`` index the pair's rect and polygon).
    """
    out = np.zeros(cols.count, dtype=bool)
    scalars, corner_x, corner_y = _rect_scalars(rects)
    leg, row = cols.bbox_candidates(
        corner_x.min(axis=0) - _BBOX_MARGIN,
        corner_y.min(axis=0) - _BBOX_MARGIN,
        corner_x.max(axis=0) + _BBOX_MARGIN,
        corner_y.max(axis=0) + _BBOX_MARGIN,
    )
    if len(row) == 0:
        return out

    # Clause A: any polygon vertex inside the rect.  This decides almost
    # every true verdict (footprints genuinely inside the conduit), so
    # clauses B and C only run on the pairs it leaves undecided.
    starts = cols.offsets[row]
    pair, k = _expand(cols.offsets[row + 1] - starts)
    lanes = starts[pair] + k
    vert_in = _contains(*scalars[:, leg[pair]], cols.vx[lanes], cols.vy[lanes])
    out[row[pair[vert_in]]] = True
    undecided = ~out[row]
    if not undecided.any():
        return out
    leg, row = leg[undecided], row[undecided]

    # Clause B: any rect corner inside the polygon — four point tests
    # per pair, pair-major.
    corner_in, _near = _point_in_polygon_lanes(
        cols, np.repeat(row, 4), corner_x[:, leg].T.ravel(), corner_y[:, leg].T.ravel()
    )
    hit = corner_in.reshape(-1, 4).any(axis=1)
    out[row[hit]] = True
    undecided = ~out[row]
    if not undecided.any():
        return out
    leg, row = leg[undecided], row[undecided]

    # Clause C: any polygon edge crosses any rect edge.  The scalar loop
    # tests poly_edge x rect_edge pairs; OR over pairs is
    # order-independent, so one broadcast pass over all four rect edges
    # at once (rect edges down axis 0, poly-edge lanes along axis 1)
    # suffices.
    starts = cols.offsets[row]
    pair, k = _expand(cols.offsets[row + 1] - starts)
    lanes = starts[pair] + k
    q1x = corner_x[:, leg[pair]]
    q1y = corner_y[:, leg[pair]]
    crossing = _segments_intersect_lanes(
        cols.vx[lanes], cols.vy[lanes], cols.ex[lanes], cols.ey[lanes],
        q1x, q1y, np.roll(q1x, -1, axis=0), np.roll(q1y, -1, axis=0),
    ).any(axis=0)
    out[row[pair[crossing]]] = True
    return out


def _is_degenerate(rect: "ConduitRect") -> bool:
    dx = rect.end.x - rect.start.x
    dy = rect.end.y - rect.start.y
    return dx * dx + dy * dy == 0.0


def path_overlap_mask(
    cols: PolygonColumns,
    path: "ConduitPath",
    polygons: Sequence["Polygon"] | None = None,
) -> np.ndarray:
    """``path.intersects_polygon(p)`` for every polygon, as a bool array.

    Degenerate rects (zero-length legs) are evaluated with the scalar
    predicate over bbox-prefiltered candidates; everything else runs
    columnar, all legs at once.  ``polygons`` must be supplied when the
    path contains a degenerate rect (the scalar fallback needs the
    objects back).
    """
    live: list["ConduitRect"] = []
    discs: list["ConduitRect"] = []
    for rect in path.rects:
        (discs if _is_degenerate(rect) else live).append(rect)
    out = _rects_overlap_mask(cols, live)
    if discs:
        # Scalar fallback for the degenerate disc case.
        x = np.array([r.start.x for r in discs])
        y = np.array([r.start.y for r in discs])
        half = np.array([r.width / 2.0 + _BBOX_MARGIN for r in discs])
        disc, row = cols.bbox_candidates(x - half, y - half, x + half, y + half)
        if len(row) and polygons is None:
            raise ValueError(
                "degenerate conduit rect needs the polygon objects "
                "for the scalar fallback"
            )
        for d, r in zip(disc.tolist(), row.tolist()):
            if not out[r] and discs[d].intersects_polygon(polygons[r]):
                out[r] = True
    return out
