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
from . import reach
from .placement import AccessPoint

DEFAULT_TRANSMISSION_RANGE = 50.0  # metres, the paper's evaluation setting


@dataclass
class APGraph:
    """Unit-disk graph over access points.

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
    _adjacency: list[list[int]] = field(init=False, repr=False)
    _index: GridIndex[int] = field(init=False, repr=False)
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
        self._index = GridIndex(cell_size=max(max_range, 1.0))
        for ap in self.aps:
            self._index.insert(ap.id, ap.position)
        # Heterogeneous ranges: a usable (bidirectional) link requires
        # each end to hear the other, i.e. distance <= min of the two
        # effective ranges.  With uniform ranges this reduces to the
        # paper's symmetric cutoff.
        eff = [
            ap.range_m if ap.range_m is not None else self.transmission_range
            for ap in self.aps
        ]
        self._adjacency = [[] for _ in self.aps]
        for ap in self.aps:
            for other_id in self._index.query_radius(ap.position, eff[ap.id]):
                if other_id == ap.id:
                    continue
                link_range = min(eff[ap.id], eff[other_id])
                if ap.position.distance_to(self.aps[other_id].position) <= link_range:
                    self._adjacency[ap.id].append(other_id)
        self._by_building = {}
        for ap in self.aps:
            self._by_building.setdefault(ap.building_id, []).append(ap.id)

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
        grid cell ascending, then by insertion order within the cell's
        bucket; new APs land at bucket tails, so extension reduces to
        ordered inserts into the O(degree) affected lists instead of
        an O(n·degree) rebuild.

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
        cell_size = self._index.cell_size
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
        index = self._index.copy()
        adjacency = [list(a) for a in self._adjacency]
        adjacency.extend([] for _ in new_aps)
        by_building = {k: list(v) for k, v in self._by_building.items()}
        for ap in new_aps:
            index.insert(ap.id, ap.position)

        def eff(ap: AccessPoint) -> float:
            return ap.range_m if ap.range_m is not None else self.transmission_range

        def cell_of(p: Point) -> tuple[int, int]:
            return (math.floor(p.x / cell_size), math.floor(p.y / cell_size))

        positions = {ap.id: ap.position for ap in combined}
        for ap in new_aps:
            e_v = eff(ap)
            v_cell = cell_of(ap.position)
            # The new AP's own list comes straight from a radius query
            # over the extended index — that IS fresh-build order.
            own: list[int] = []
            for other_id in index.query_radius(ap.position, e_v):
                if other_id == ap.id:
                    continue
                other = combined[other_id]
                link_range = min(e_v, eff(other))
                if ap.position.distance_to(other.position) > link_range:
                    continue
                own.append(other_id)
                if other_id < n0:
                    # New-new pairs are covered by each other's radius
                    # queries; only pre-existing lists need a patch.
                    # Ordered insert into the lower-id endpoint's list:
                    # after every neighbour in a cell <= the new AP's
                    # (equal-cell existing entries precede bucket-tail
                    # newcomers; earlier new APs were inserted first,
                    # matching their bucket order).
                    lst = adjacency[other_id]
                    pos = len(lst)
                    for idx, w in enumerate(lst):
                        if cell_of(positions[w]) > v_cell:
                            pos = idx
                            break
                    lst.insert(pos, ap.id)
            adjacency[ap.id] = own
            by_building.setdefault(ap.building_id, []).append(ap.id)
        clone._adjacency = adjacency
        clone._index = index
        clone._by_building = by_building
        return clone

    # ------------------------------------------------------------------
    # Structure queries
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.aps)

    def neighbors(self, ap_id: int) -> list[int]:
        """Ids of APs within transmission range of ``ap_id``."""
        return self._adjacency[ap_id]

    def degree(self, ap_id: int) -> int:
        """Number of one-hop neighbours."""
        return len(self._adjacency[ap_id])

    def position(self, ap_id: int) -> Point:
        """Planar position of an AP."""
        return self.aps[ap_id].position

    def adjacency_lists(self) -> list[list[int]]:
        """The full integer adjacency structure, indexed by AP id.

        This is the graph's own storage (do not mutate); array consumers
        such as the broadcast kernel read :meth:`csr` instead.
        """
        return self._adjacency

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The adjacency as int32 CSR ``(indptr, indices)``, built once.

        ``indices[indptr[i]:indptr[i+1]]`` are AP ``i``'s neighbours in
        exactly the order of :meth:`neighbors` — columnar consumers
        (the broadcast kernel, island BFS) rely on that order for
        RNG-draw alignment.  The graph is immutable after construction,
        so the arrays never go stale.
        """
        cached = getattr(self, "_csr", None)
        if cached is None:
            counts = np.fromiter(
                (len(a) for a in self._adjacency),
                dtype=np.int64,
                count=len(self._adjacency),
            )
            indptr = np.zeros(len(self._adjacency) + 1, dtype=np.int64)
            np.cumsum(counts, out=indptr[1:])
            indices = np.fromiter(
                (v for a in self._adjacency for v in a),
                dtype=np.int32,
                count=int(indptr[-1]),
            )
            cached = (indptr, indices)
            self._csr = cached
        return cached

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
        return self._index.query_radius(center, radius)

    def edge_count(self) -> int:
        """Number of undirected links in the mesh."""
        return sum(len(a) for a in self._adjacency) // 2

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
