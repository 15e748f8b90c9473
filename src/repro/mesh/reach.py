"""Reachability over the AP mesh: one frontier-at-a-time BFS.

The evaluation asks the ground-truth mesh who reaches whom: can
building A reach building B (Fig 6), how many hops the best unicast
takes (the overhead denominator), whether a path avoids the
compromised APs (§1's success criterion), and which islands an alive
mask splits the mesh into (§4, scenario epochs).  Each is a few lines
on :func:`expand`, one BFS level over the graph's cached CSR
adjacency that gathers every frontier member's neighbours in one
vectorised step, so the interpreter overhead is per level, not per
edge.  ``tests/reference.py::reference_bfs`` is the plain queue BFS
they are checked against.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, Sequence

import numpy as np

if TYPE_CHECKING:
    from .graph import APGraph


def check_ids(ids: np.ndarray, n: int, what: str) -> None:
    """Raise ``IndexError`` unless every id names an AP of an ``n``-AP graph."""
    if ids.size and (int(ids.min()) < 0 or int(ids.max()) >= n):
        bad = int(ids.min()) if int(ids.min()) < 0 else int(ids.max())
        raise IndexError(f"{what} names AP {bad} but the graph has only {n} APs")


def _rows(graph: APGraph) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each AP's CSR row start minus one and row length, and the
    neighbour column."""
    indptr, indices = graph.csr()
    return indptr[:-1] - 1, indptr[1:] - indptr[:-1], indices


def expand(
    rows: tuple[np.ndarray, np.ndarray, np.ndarray],
    frontier: np.ndarray,
    open_: np.ndarray,
    stamp: np.ndarray,
    parent: np.ndarray | None = None,
) -> np.ndarray:
    """One BFS level: every ``open_`` neighbour of a non-empty
    ``frontier``, once each.

    ``frontier`` and the returned level are both listed back to front:
    reversed, the level is in first-discovery order, the order in which
    a queue BFS popping the reversed frontier would append it, so levels
    and parents match that BFS exactly.  Returned APs are cleared from
    ``open_``, and ``parent[v]`` (when given) becomes the first frontier
    member in queue order that lists ``v``.  ``stamp`` is caller-owned
    int64 scratch of graph size whose contents are ignored.
    """
    before, degree, indices = rows
    counts = degree[frontier]
    ends = np.cumsum(counts)
    total = int(ends[-1])
    if not total:
        return frontier[:0]
    # Every frontier member's neighbour lanes, back to front.
    lanes = np.repeat(before[frontier] + ends, counts) - np.arange(total)
    found = indices[lanes]
    keep = open_[found]
    found = found[keep]
    if not found.size:
        return found
    # Of several stamp writes to one AP the last one lands, and back to
    # front that is the AP's first lane in queue order.
    positions = np.arange(found.size)
    stamp[found] = positions
    first_seen = stamp[found] == positions
    found = found[first_seen]
    open_[found] = False
    if parent is not None:
        parent[found] = np.repeat(frontier, counts)[keep][first_seen]
    return found


def levels(
    graph: APGraph,
    source: int,
    open_: np.ndarray | None = None,
    parent: np.ndarray | None = None,
) -> Iterator[np.ndarray]:
    """BFS levels from ``source`` in queue-BFS discovery order: level
    ``k`` holds the APs ``k`` hops out.

    Only ``open_`` APs (default: all) are reached, and each is cleared
    from ``open_`` when it is; a closed source yields nothing.

    Raises:
        IndexError: if ``source`` is not an AP of the graph.
    """
    n = len(graph.aps)
    frontier = np.array([source], dtype=np.int64)
    check_ids(frontier, n, "source")
    if open_ is None:
        open_ = np.ones(n, dtype=bool)
    rows = _rows(graph)
    stamp = np.empty(n, dtype=np.int64)
    frontier = frontier[open_[frontier]]
    open_[frontier] = False
    while frontier.size:
        yield frontier[::-1]
        frontier = expand(rows, frontier, open_, stamp, parent)


def hops_to(
    graph: APGraph, source: int, targets: Sequence[int], open_: np.ndarray | None = None
) -> int | None:
    """Fewest hops from ``source`` to any of ``targets``, or None."""
    hit = np.zeros(len(graph.aps), dtype=bool)
    hit[targets] = True
    for hops, level in enumerate(levels(graph, source, open_)):
        if hit[level].any():
            return hops
    return None


def shortest_path(graph: APGraph, src: int, dst: int) -> list[int] | None:
    """A minimum-hop AP path from ``src`` to ``dst``, or None.

    Raises:
        IndexError: if either end is not an AP of the graph.
    """
    n = len(graph.aps)
    check_ids(np.array([dst]), n, "destination")
    open_ = np.ones(n, dtype=bool)
    parent = np.empty(n, dtype=np.int64)
    for _ in levels(graph, src, open_, parent):
        if not open_[dst]:
            path = [dst]
            while path[-1] != src:
                path.append(int(parent[path[-1]]))
            return path[::-1]
    return None


def island_labels(graph: APGraph, alive: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Connected components of the mesh restricted to the ``alive`` mask.

    Returns ``(labels, sizes)``: ``labels[i]`` is AP ``i``'s component
    (−1 for a dead AP) and ``sizes[k]`` is component ``k``'s AP count.
    Each search starts from the smallest unlabelled alive AP, so
    components are numbered in order of their smallest AP id.  The
    scratch arrays are allocated once per call, not per component.
    """
    n = len(graph.aps)
    rows = _rows(graph)
    open_ = np.array(alive, dtype=bool)
    labels = np.full(n, -1, dtype=np.int64)
    stamp = np.empty(n, dtype=np.int64)
    sizes: list[int] = []
    pending = np.flatnonzero(open_)
    while pending.size:
        frontier = pending[:1]
        open_[frontier] = False
        size = 0
        while frontier.size:
            labels[frontier] = len(sizes)
            size += frontier.size
            frontier = expand(rows, frontier, open_, stamp)
        sizes.append(size)
        pending = pending[open_[pending]]
    return labels, np.array(sizes, dtype=np.int64)
