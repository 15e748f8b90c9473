"""Island analysis and bridge-AP planning.

The paper observes that rivers, parks, and highways fracture some
cities "into multiple islands of connectivity" and proposes that "the
addition of a small number of well-placed APs would serve to bridge
connectivity between these islands" (§4).  This module implements both
halves: detecting the islands and greedily planning the bridge APs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable

import numpy as np

from ..geometry import Point
from .graph import APGraph
from .placement import AccessPoint
from .reach import check_ids, island_labels


@dataclass(frozen=True)
class Island:
    """One connected component of the AP mesh."""

    ap_ids: frozenset[int]
    building_ids: frozenset[int]

    @property
    def size(self) -> int:
        return len(self.ap_ids)


def find_islands(
    graph: APGraph, min_size: int = 1, alive: Iterable[int] | None = None
) -> list[Island]:
    """Connected components of the mesh as islands, largest first.

    Equal-size islands keep :func:`island_labels` order (smallest
    member id first).

    Args:
        graph: the full AP mesh.
        min_size: smallest component reported as an island.
        alive: restrict the mesh to this subset of AP ids (dead APs and
            their links vanish) without rebuilding the graph — the
            incremental path for time-stepped die-off analysis.  Island
            ``ap_ids`` keep the *original* graph's ids, unlike a
            :func:`~repro.mesh.power.surviving_mesh` rebuild which
            re-indexes.  ``None`` (default) means every AP is alive.

    Raises:
        IndexError: if ``alive`` names an AP id outside the graph.
    """
    n = len(graph.aps)
    if alive is None:
        mask = np.ones(n, dtype=bool)
    else:
        ids = np.fromiter(alive, dtype=np.int64)
        check_ids(ids, n, "alive set")
        mask = np.zeros(n, dtype=bool)
        mask[ids] = True
    labels, sizes = island_labels(graph, mask)
    # Group the alive APs by label (ascending ids within each group),
    # then emit the groups largest first; the stable sort keeps
    # equal-size islands in label order.
    members = np.flatnonzero(mask)
    members = members[np.argsort(labels[members], kind="stable")]
    bounds = np.concatenate(([0], np.cumsum(sizes))).tolist()
    building_of = graph.building_id_list()
    islands = []
    for label in np.argsort(-sizes, kind="stable").tolist():
        if sizes[label] < min_size:
            break
        comp = members[bounds[label] : bounds[label + 1]].tolist()
        islands.append(
            Island(
                # From a dict, the frozenset's hash table is sized to
                # the members; from a list it grows to twice that, and
                # callers keep islands for whole timelines.
                ap_ids=frozenset(dict.fromkeys(comp)),
                building_ids=frozenset(map(building_of.__getitem__, comp)),
            )
        )
    return islands


@dataclass(frozen=True)
class BridgePlan:
    """A proposed chain of new APs connecting two islands."""

    from_ap: int
    to_ap: int
    new_positions: tuple[Point, ...]

    @property
    def ap_count(self) -> int:
        return len(self.new_positions)


def _bbox_lb2(qx: np.ndarray, qy: np.ndarray, tx: np.ndarray, ty: np.ndarray) -> np.ndarray:
    """Squared lower bound from each query point to the targets' bbox."""
    dx = np.maximum(np.maximum(tx.min() - qx, qx - tx.max()), 0.0)
    dy = np.maximum(np.maximum(ty.min() - qy, qy - ty.max()), 0.0)
    return dx * dx + dy * dy


def closest_gap(graph: APGraph, a: Island, b: Island) -> tuple[int, int, float]:
    """The closest AP pair across two islands: ``(ap_a, ap_b, distance)``.

    Columnar brute force with bounding-box pruning: one cheap seed row
    (the ``a`` AP nearest ``b``'s bbox against all of ``b``) gives an
    upper bound, every AP whose bbox lower bound exceeds it drops out,
    and the survivors — typically only the APs fringing the gap — are
    scanned in small reused broadcast buffers.  That keeps temporaries
    a few MB instead of materialising the full |a|x|b| product, which
    beats the old per-AP expanding-radius index walk by ~50x on
    city-scale islands.  Ties resolve to the lowest ``(ap_a, ap_b)``
    id pair, so the result is deterministic.
    """
    if not a.ap_ids or not b.ap_ids:
        raise ValueError("islands share no finite gap (one of them is empty?)")
    px, py = graph.position_arrays()
    ids_a = np.fromiter(sorted(a.ap_ids), dtype=np.int64, count=a.size)
    ids_b = np.fromiter(sorted(b.ap_ids), dtype=np.int64, count=b.size)
    ax, ay = px[ids_a], py[ids_a]
    bx, by = px[ids_b], py[ids_b]

    # Seed upper bound: nearest-to-bbox a-AP against every b-AP.
    lb_a = _bbox_lb2(ax, ay, bx, by)
    seed = int(np.argmin(lb_a))
    dx = ax[seed] - bx
    dy = ay[seed] - by
    d2_row = dx * dx + dy * dy
    j = int(np.argmin(d2_row))
    best_d2 = float(d2_row[j])
    best_pair = (int(ids_a[seed]), int(ids_b[j]))

    # Prune both sides: an AP whose bbox lower bound beats the seed
    # bound can never win (lb <= true min distance).  Keep == for ties.
    keep_a = lb_a <= best_d2
    keep_b = _bbox_lb2(bx, by, ax, ay) <= best_d2
    ids_a2, ax2, ay2 = ids_a[keep_a], ax[keep_a], ay[keep_a]
    ids_b2, bx2, by2 = ids_b[keep_b], bx[keep_b], by[keep_b]

    # Blocked scan of the survivors, reusing two small buffers so no
    # fresh multi-MB temporary is allocated per block (first-touch page
    # faults dominate large allocations on small hosts).
    nb = int(ids_b2.size)
    rows = max(1, 200_000 // max(1, nb))
    dxbuf = np.empty((rows, nb), dtype=np.float64)
    dybuf = np.empty((rows, nb), dtype=np.float64)
    for lo in range(0, int(ids_a2.size), rows):
        r = min(rows, int(ids_a2.size) - lo)
        dx = np.subtract(ax2[lo : lo + r, None], bx2[None, :], out=dxbuf[:r])
        dy = np.subtract(ay2[lo : lo + r, None], by2[None, :], out=dybuf[:r])
        np.multiply(dx, dx, out=dx)
        np.multiply(dy, dy, out=dy)
        d2 = np.add(dx, dy, out=dx)
        m = float(d2.min())
        if m > best_d2:
            continue
        # Exact lexicographic tie-break over the (few) minimal entries.
        rr, cc = np.nonzero(d2 == m)
        rmin = int(rr.min())
        cmin = int(cc[rr == rmin].min())
        pair = (int(ids_a2[lo + rmin]), int(ids_b2[cmin]))
        if m < best_d2 or pair < best_pair:
            best_d2 = m
            best_pair = pair
    ap_a, ap_b = best_pair
    d = graph.position(ap_a).distance_to(graph.position(ap_b))
    return ap_a, ap_b, d


def plan_bridge(graph: APGraph, a: Island, b: Island, spacing_factor: float = 0.8) -> BridgePlan:
    """Plan a straight chain of new APs across the gap between islands.

    New APs are spaced at ``spacing_factor * transmission_range`` so
    consecutive chain members (and the existing endpoints) are safely
    within range of each other.
    """
    if not 0 < spacing_factor <= 1:
        raise ValueError("spacing_factor must be in (0, 1]")
    ap_a, ap_b, gap = closest_gap(graph, a, b)
    p_a = graph.position(ap_a)
    p_b = graph.position(ap_b)
    spacing = spacing_factor * graph.transmission_range
    if gap <= graph.transmission_range:
        return BridgePlan(from_ap=ap_a, to_ap=ap_b, new_positions=())
    segments = int(gap // spacing) + 1
    positions = tuple(
        p_a.lerp(p_b, i / segments) for i in range(1, segments)
    )
    return BridgePlan(from_ap=ap_a, to_ap=ap_b, new_positions=positions)


def bridge_all_islands(
    graph: APGraph,
    min_island_size: int = 5,
    spacing_factor: float = 0.8,
) -> tuple[list[BridgePlan], list[AccessPoint]]:
    """Greedily connect every significant island to the largest one.

    Returns the per-island plans and the concrete new APs (assigned to
    the nearest existing building of their chain endpoint, with fresh
    contiguous ids) that an operator would deploy.

    Islands smaller than ``min_island_size`` APs are ignored — they are
    typically isolated single buildings not worth bridging.
    """
    islands = find_islands(graph, min_size=min_island_size)
    if len(islands) <= 1:
        return [], []
    main = islands[0]
    plans: list[BridgePlan] = []
    new_aps: list[AccessPoint] = []
    next_id = len(graph.aps)
    for island in islands[1:]:
        plan = plan_bridge(graph, main, island, spacing_factor=spacing_factor)
        plans.append(plan)
        anchor_building = graph.aps[plan.from_ap].building_id
        for pos in plan.new_positions:
            new_aps.append(AccessPoint(id=next_id, position=pos, building_id=anchor_building))
            next_id += 1
    return plans, new_aps


def apply_bridges(graph: APGraph, new_aps: list[AccessPoint]) -> APGraph:
    """A new AP graph with the bridge APs added.

    Extends incrementally (:meth:`APGraph.with_added_aps`) — identical
    adjacency to a fresh build, without re-pairing the whole mesh.
    """
    return graph.with_added_aps(list(new_aps))
