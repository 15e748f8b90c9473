"""Shortest-path planning over the building graph.

Every search in :mod:`repro.buildgraph` is one
:func:`scipy.sparse.csgraph.dijkstra` tree over a CSR whose rows are
buildings in ascending id order (see :meth:`BuildingGraph.csr`), read
back with :func:`tree_path`.  The flat planner, the security detour
view and the metro hierarchy share that walk, so they share one
tie-break: scipy keeps the first predecessor that reaches a node at its
final distance.  Sorted column indices make the CSR, and hence every
route, a function of the graph alone, not of the order it was mutated
in.  Work is counted as the number of finite distances in a tree.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Sequence

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import dijkstra


class NoRouteError(Exception):
    """No path exists between the requested buildings.

    Raised when the endpoints sit on different connected components of
    the predicted building graph — the paper's Washington-D.C. effect,
    where rivers/parks fracture the mesh into islands.
    """


def tree_path(ids: Sequence[int], pred: np.ndarray, row: int) -> list[int]:
    """Buildings from ``row`` back to the root of a scipy predecessor tree.

    ``ids[i]`` is the building of row ``i``; the path runs row-first,
    root-last.
    """
    path = [ids[row]]
    row = pred[row]
    while row >= 0:
        path.append(ids[row])
        row = pred[row]
    return path


def shortest_routes(
    ids: Sequence[int], matrix: csr_matrix, src: int, dsts: Sequence[int]
) -> tuple[list[list[int] | None], int]:
    """Routes from ``src`` to each of ``dsts`` over one Dijkstra tree.

    Args:
        ids: ascending building ids; row ``i`` of ``matrix`` is ``ids[i]``.
        matrix: the weighted adjacency CSR.
        src / dsts: building ids present in ``ids``.

    Returns:
        ``(routes, settled)``: routes aligned with ``dsts`` (``None``
        where unreachable) and the tree's count of finite distances.
    """
    dist, pred = dijkstra(
        matrix, directed=True, indices=bisect_left(ids, src), return_predecessors=True
    )
    routes: list[list[int] | None] = []
    for dst in dsts:
        row = bisect_left(ids, dst)
        if np.isinf(dist[row]):
            routes.append(None)
        else:
            route = tree_path(ids, pred, row)
            route.reverse()
            routes.append(route)
    return routes, int(np.isfinite(dist).sum())


def plan_building_route(graph, src_building: int, dst_building: int) -> list[int]:
    """Plan the minimum-weight building route between two buildings.

    ``graph.plan`` of a :class:`BuildingGraph` or a
    :class:`~repro.buildgraph.MetroRouter`.

    Raises:
        KeyError: if either endpoint is missing from the graph.
        NoRouteError: if the endpoints are on disconnected islands.
    """
    return graph.plan(src_building, dst_building)
