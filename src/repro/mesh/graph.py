"""The AP connectivity graph: a unit-disk graph over placed APs.

Two APs are connected when their distance is at most the transmission
range (50 m in the paper's evaluation, symmetric cutoff).  The graph is
the simulation ground truth — the building graph used for routing is
built *without* looking at it, which is exactly the paper's point.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ..geometry import GridIndex, Point
from ..geometry.index import _BOUND_SLACK
from . import reach
from .placement import AccessPoint

DEFAULT_TRANSMISSION_RANGE = 50.0  # metres, the paper's evaluation setting

#: Source APs per block of the neighbour join.  Each block's candidate
#: arrays hold about ``_JOIN_BLOCK`` times the APs in nine cells, so the
#: block, not the city, bounds the join's scratch memory (about 0.2 MB
#: per array).  Much larger blocks would outweigh a small mesh's whole
#: adjacency at peak; at this size metro-20k builds no slower.
_JOIN_BLOCK = 256

#: ``numpy.hypot`` and ``math.hypot`` can round apart by an ulp or so;
#: a pair whose numpy distance lies within this relative band of its
#: link range is re-decided with ``math.hypot`` (``Point.distance_to``).
_HYPOT_BAND = 1e-12


def _ramp(lengths: np.ndarray) -> np.ndarray:
    """``0 .. len - 1`` for each length, concatenated."""
    total = int(lengths.sum())
    return np.arange(total) - np.repeat(np.cumsum(lengths) - lengths, lengths)


def _cell_span(c: np.ndarray, radius: np.ndarray, cell_size: float):
    """:meth:`GridIndex._cell_span` per element: first and last cell, as floats."""
    lo = (c - radius) / cell_size
    hi = (c + radius) / cell_size
    slack = (np.abs(c) + radius) / cell_size * _BOUND_SLACK
    first = np.floor(lo)
    last = np.floor(hi)
    first -= lo - first <= slack
    last += last + 1 - hi <= slack
    return first, last


def _unit_disk_rows(
    px: np.ndarray,
    py: np.ndarray,
    eff: np.ndarray,
    cell_size: float,
    sources: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The neighbour rows of ``sources``: ``(counts, indices)``.

    Row ``i`` holds every other AP ``j`` with ``distance <= min(eff[i],
    eff[j])``, in :meth:`GridIndex.query_radius` order for a grid of
    ``cell_size`` filled in id order: the cells of ``i``'s radius span,
    x ascending then y ascending, then ids ascending.  Candidates are
    exactly the APs in those cells.  With cells ranked ``(x, y)``, the
    cells of one span column are one run of the rank-sorted APs, so a
    row is one slice per column and needs no sort.
    """
    cx = np.floor(px / cell_size)
    cy = np.floor(py / cell_size)
    ux = np.unique(cx)
    uy = np.unique(cy)
    keys = np.searchsorted(ux, cx) * len(uy) + np.searchsorted(uy, cy)
    order = np.argsort(keys, kind="stable")
    sorted_keys = keys[order]
    fx, lx = _cell_span(px[sources], eff[sources], cell_size)
    fy, ly = _cell_span(py[sources], eff[sources], cell_size)
    col_lo = np.searchsorted(ux, fx, side="left")
    col_hi = np.searchsorted(ux, lx, side="right")
    row_lo = np.searchsorted(uy, fy, side="left")
    row_hi = np.searchsorted(uy, ly, side="right")
    columns = np.where(row_hi > row_lo, col_hi - col_lo, 0)

    counts = np.zeros(len(sources), dtype=np.int64)
    rows: list[np.ndarray] = []
    for b0 in range(0, len(sources), _JOIN_BLOCK):
        block = np.arange(b0, min(b0 + _JOIN_BLOCK, len(sources)))
        # One (source, span column) pair per slice of sorted APs.
        pair = np.repeat(block, columns[block])
        col = (col_lo[pair] + _ramp(columns[block])) * len(uy)
        start = np.searchsorted(sorted_keys, col + row_lo[pair])
        lengths = np.searchsorted(sorted_keys, col + row_hi[pair]) - start
        owner = np.repeat(pair, lengths)
        j = order[np.repeat(start, lengths) + _ramp(lengths)]
        i = sources[owner]
        dx = px[i] - px[j]
        dy = py[i] - py[j]
        link = np.minimum(eff[i], eff[j])
        dist = np.hypot(dx, dy)
        keep = dist <= link
        for k in np.flatnonzero(np.abs(dist - link) <= _HYPOT_BAND * link).tolist():
            keep[k] = math.hypot(float(dx[k]), float(dy[k])) <= link[k]
        keep &= i != j
        counts += np.bincount(owner[keep], minlength=len(sources))
        rows.append(j[keep].astype(np.int32))
    return counts, np.concatenate(rows) if rows else np.zeros(0, dtype=np.int32)


def _indptr(counts: np.ndarray) -> np.ndarray:
    indptr = np.zeros(len(counts) + 1, dtype=np.int64)
    np.cumsum(counts, out=indptr[1:])
    return indptr


@dataclass
class APGraph:
    """Unit-disk graph over access points.

    The adjacency is stored only as CSR arrays (:meth:`csr`); list
    views (:meth:`neighbors`, :meth:`adjacency_lists`) are sliced from
    them on demand.

    Attributes:
        aps: all access points, indexed by their contiguous ids.
        transmission_range: symmetric range cutoff in metres.
    """

    aps: list[AccessPoint]
    transmission_range: float = DEFAULT_TRANSMISSION_RANGE
    #: Generation counter: 0 for a fresh build, parent + 1 for graphs
    #: produced by :meth:`with_added_aps`.  Each instance is still
    #: immutable; the version distinguishes extension generations for
    #: cache keys.
    version: int = field(default=0, init=False)
    _cell_size: float = field(init=False, repr=False)
    _indptr: np.ndarray = field(init=False, repr=False, compare=False)
    _indices: np.ndarray = field(init=False, repr=False, compare=False)
    _by_building: dict[int, list[int]] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        if self.transmission_range <= 0:
            raise ValueError("transmission range must be positive")
        for i, ap in enumerate(self.aps):
            if ap.id != i:
                raise ValueError("AP ids must be contiguous from 0 (use place_aps)")
        max_range = self.transmission_range
        for ap in self.aps:
            if ap.range_m is not None:
                if ap.range_m <= 0:
                    raise ValueError(f"AP {ap.id} has non-positive range")
                max_range = max(max_range, ap.range_m)
        self._cell_size = max(max_range, 1.0)
        # Heterogeneous ranges: a usable (bidirectional) link requires
        # each end to hear the other, i.e. distance <= min of the two
        # effective ranges.  With uniform ranges this reduces to the
        # paper's symmetric cutoff.
        px, py = self.position_arrays()
        counts, self._indices = _unit_disk_rows(
            px, py, self._ranges(), self._cell_size, np.arange(len(self.aps))
        )
        self._indptr = _indptr(counts)
        self._by_building = {}
        for ap in self.aps:
            self._by_building.setdefault(ap.building_id, []).append(ap.id)

    def _ranges(self) -> np.ndarray:
        """Every AP's effective range as a float64 array."""
        default = self.transmission_range
        return np.fromiter(
            (default if ap.range_m is None else ap.range_m for ap in self.aps),
            dtype=np.float64,
            count=len(self.aps),
        )

    def effective_range(self, ap_id: int) -> float:
        """The transmission range in force for one AP."""
        r = self.aps[ap_id].range_m
        return r if r is not None else self.transmission_range

    def with_added_aps(self, new_aps: list[AccessPoint]) -> "APGraph":
        """A new graph extending this one — without the full rebuild.

        The returned graph is exactly what ``APGraph(self.aps +
        new_aps)`` would build, including *neighbour-list order* (the
        columnar broadcast kernel aligns RNG draws with adjacency
        order, so byte-identical lists are part of the contract, not a
        nicety).  A fresh build orders each list by the neighbour's
        grid cell ascending (x, then y), then by id; new APs carry the
        highest ids, so extension joins only the new APs' rows and
        inserts each new AP into its old neighbours' rows after every
        entry in a cell <= its own, instead of an O(n·degree) rebuild.

        Falls back to a genuine full rebuild only when a new AP's
        override range exceeds the existing grid cell size (a fresh
        build would choose different cells, changing global order).

        Raises:
            ValueError: if new ids do not continue contiguously, or a
                new AP has a non-positive override range.
        """
        if not new_aps:
            return self
        n0 = len(self.aps)
        for i, ap in enumerate(new_aps):
            if ap.id != n0 + i:
                raise ValueError(
                    "new AP ids must continue contiguously from "
                    f"{n0}, got {ap.id}"
                )
        cell_size = self._cell_size
        needs_rebuild = False
        for ap in new_aps:
            if ap.range_m is not None:
                if ap.range_m <= 0:
                    raise ValueError(f"AP {ap.id} has non-positive range")
                if ap.range_m > cell_size:
                    needs_rebuild = True
        combined = list(self.aps) + list(new_aps)
        if needs_rebuild:
            return APGraph(combined, transmission_range=self.transmission_range)

        clone: APGraph = object.__new__(APGraph)
        clone.aps = combined
        clone.transmission_range = self.transmission_range
        clone.version = self.version + 1
        clone._cell_size = cell_size
        old_x, old_y = self.position_arrays()
        px = np.concatenate([old_x, [ap.position.x for ap in new_aps]])
        py = np.concatenate([old_y, [ap.position.y for ap in new_aps]])
        clone._position_arrays = (px, py)
        n = len(combined)
        new_counts, new_rows = _unit_disk_rows(
            px, py, clone._ranges(), cell_size, np.arange(n0, n)
        )
        # Each (old AP w, new AP v) link puts v into w's row, after the
        # entries whose cell is <= v's (the row is sorted by cell).
        v_of = np.repeat(np.arange(n0, n), new_counts)
        old = new_rows < n0
        w, v = new_rows[old].astype(np.int64), v_of[old]
        indptr, indices = self.csr()
        row_len = indptr[w + 1] - indptr[w]
        entry = np.repeat(np.arange(len(w)), row_len)
        u = indices[np.repeat(indptr[w], row_len) + _ramp(row_len)]
        cx = np.floor(px / cell_size)
        cy = np.floor(py / cell_size)
        ve = v[entry]
        before = (cx[u] < cx[ve]) | ((cx[u] == cx[ve]) & (cy[u] <= cy[ve]))
        at = indptr[w] + np.bincount(entry[before], minlength=len(w))
        # At one insertion point, the end of row w precedes the start of
        # row w + 1, and one row's new APs go in (cell, id) order.
        by = np.lexsort((v, cy[v], cx[v], w, at))
        clone._indices = np.concatenate(
            [np.insert(indices, at[by], v[by].astype(np.int32)), new_rows]
        )
        old_counts = np.diff(indptr) + np.bincount(w, minlength=n0)
        clone._indptr = _indptr(np.concatenate([old_counts, new_counts]))
        by_building = {k: list(val) for k, val in self._by_building.items()}
        for ap in new_aps:
            by_building.setdefault(ap.building_id, []).append(ap.id)
        clone._by_building = by_building
        return clone

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.aps)

    def neighbors(self, ap_id: int) -> list[int]:
        """Ids of APs within transmission range of ``ap_id`` (a fresh list)."""
        starts = getattr(self, "_row_starts", None)
        if starts is None:
            starts = self._row_starts = self._indptr.tolist()
        return self._indices[starts[ap_id] : starts[ap_id + 1]].tolist()

    def degree(self, ap_id: int) -> int:
        """Number of one-hop neighbours."""
        return int(self._indptr[ap_id + 1] - self._indptr[ap_id])

    def position(self, ap_id: int) -> Point:
        """Planar position of an AP."""
        return self.aps[ap_id].position

    def adjacency_lists(self) -> list[list[int]]:
        """The full adjacency as fresh lists, indexed by AP id."""
        return [self.neighbors(i) for i in range(len(self.aps))]

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The adjacency as CSR ``(indptr, indices)``: int64 and int32.

        ``indices[indptr[i]:indptr[i+1]]`` are AP ``i``'s neighbours in
        exactly the order of :meth:`neighbors` — columnar consumers
        (the broadcast kernel, island BFS) rely on that order for
        RNG-draw alignment.  These arrays are the graph's own storage:
        do not mutate them.
        """
        return self._indptr, self._indices

    def position_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """AP positions as flat ``(x, y)`` float64 arrays, built once."""
        cached = getattr(self, "_position_arrays", None)
        if cached is None:
            n = len(self.aps)
            px = np.fromiter(
                (ap.position.x for ap in self.aps), dtype=np.float64, count=n
            )
            py = np.fromiter(
                (ap.position.y for ap in self.aps), dtype=np.float64, count=n
            )
            cached = (px, py)
            self._position_arrays = cached
        return cached

    def building_id_list(self) -> list[int]:
        """``building_id`` per AP as a flat list indexed by AP id."""
        cached = getattr(self, "_building_id_list", None)
        if cached is None:
            cached = [ap.building_id for ap in self.aps]
            self._building_id_list = cached
        return cached

    def aps_in_building(self, building_id: int) -> list[int]:
        """Ids of APs placed inside the given building (possibly empty)."""
        return self._by_building.get(building_id, [])

    def aps_within(self, center: Point, radius: float) -> list[int]:
        """Ids of APs within ``radius`` of an arbitrary point."""
        index = getattr(self, "_index", None)
        if index is None:
            index = self._index = GridIndex(cell_size=self._cell_size)
            index.extend((ap.id, ap.position) for ap in self.aps)
        return index.query_radius(center, radius)

    def edge_count(self) -> int:
        """Number of undirected links in the mesh."""
        return int(self._indptr[-1]) // 2

    # ------------------------------------------------------------------
    # Path queries (ground-truth oracles used for evaluation only; each
    # is a few lines on repro.mesh.reach)
    # ------------------------------------------------------------------
    def shortest_path(self, src: int, dst: int) -> list[int] | None:
        """A minimum-hop AP path from ``src`` to ``dst``, or None."""
        return reach.shortest_path(self, src, dst)

    def min_hops_to_building(self, src: int, building_id: int) -> int | None:
        """Minimum hops from ``src`` to *any* AP in the target building.

        This is the denominator of the paper's transmission-overhead
        metric: the absolute best case number of transmissions.
        """
        return reach.hops_to(self, src, self.aps_in_building(building_id))

    def component_ids(self) -> tuple[np.ndarray, np.ndarray]:
        """``(labels, sizes)`` of the connected components, computed once.

        Two APs are mutually reachable iff their labels are equal;
        ``sizes[labels[i]]`` is the size of AP ``i``'s component.
        """
        if getattr(self, "_component_ids", None) is None:
            self._component_ids = reach.island_labels(self, np.ones(len(self.aps), dtype=bool))
        return self._component_ids

    def buildings_reachable(self, src_building: int, dst_building: int) -> bool:
        """Whether any AP in ``src_building`` can reach any AP in
        ``dst_building`` through the mesh (the paper's *reachability*)."""
        labels = self.component_ids()[0]
        src = labels[self.aps_in_building(src_building)].tolist()
        return not set(src).isdisjoint(labels[self.aps_in_building(dst_building)].tolist())
