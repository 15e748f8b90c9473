"""The frontier BFS of ``repro.mesh.reach`` against a plain queue BFS.

Every reachability answer the evaluation reads (hop counts, shortest
paths, honest-path reach, island labels) is checked on random
unit-disk graphs against ``tests/reference.py``: hop levels, the order
within each level and every parent must equal the queue BFS's, so
``shortest_path`` is tuple-equal to the path the queue BFS walks.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point
from repro.mesh import AccessPoint, APGraph, find_islands, island_labels
from repro.mesh.reach import hops_to, levels
from repro.security import honest_path_exists

from .reference import reference_bfs, reference_components


@st.composite
def worlds(draw):
    """A unit-disk graph of at most 40 APs, an open mask and a query."""
    n = draw(st.integers(min_value=1, max_value=40))
    coord = st.floats(min_value=0, max_value=300)
    aps = [
        AccessPoint(
            i,
            Point(draw(coord), draw(coord)),
            draw(st.integers(min_value=0, max_value=5)),
            range_m=draw(st.none() | st.floats(min_value=10, max_value=120)),
        )
        for i in range(n)
    ]
    graph = APGraph(aps, transmission_range=draw(st.floats(min_value=20, max_value=100)))
    open_ = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    src = draw(st.integers(min_value=0, max_value=n - 1))
    dst = draw(st.integers(min_value=0, max_value=n - 1))
    building = draw(st.integers(min_value=0, max_value=6))
    return graph, open_, src, dst, building


def _walk(parent, src, dst):
    path = [dst]
    while path[-1] != src:
        path.append(parent[path[-1]])
    return path[::-1]


@given(worlds())
@settings(max_examples=200, deadline=None)
def test_reach_matches_queue_bfs(world):
    graph, open_, src, dst, building = world
    n = len(graph.aps)
    adjacency = graph.adjacency_lists()

    # Hop levels, first-discovery order within a level, and parents.
    dist, parent = reference_bfs(adjacency, [src], open_)
    mask = np.array(open_, dtype=bool)
    got_parent = np.full(n, -1, dtype=np.int64)
    got_levels = [level.tolist() for level in levels(graph, src, mask, got_parent)]
    assert [v for level in got_levels for v in level] == list(dist)
    assert {v: k for k, level in enumerate(got_levels) for v in level} == dist
    assert {v: int(got_parent[v]) for v in parent} == parent
    assert mask.tolist() == [o and v not in dist for v, o in enumerate(open_)]

    # Shortest path and hops to a building over the whole mesh.
    all_open = [True] * n
    dist_all, parent_all = reference_bfs(adjacency, [src], all_open)
    want = _walk(parent_all, src, dst) if dst in dist_all else None
    assert graph.shortest_path(src, dst) == want
    hops = [dist_all[a] for a in graph.aps_in_building(building) if a in dist_all]
    assert graph.min_hops_to_building(src, building) == (min(hops) if hops else None)
    assert hops_to(graph, src, [dst], np.array(open_)) == dist.get(dst)

    # Honest-path reach: the closed APs are the compromised ones.
    compromised = frozenset(v for v in range(n) if not open_[v])
    assert honest_path_exists(graph, src, building, compromised) == any(
        a in dist for a in graph.aps_in_building(building)
    )

    # Island labels: the reference partition, numbered by smallest id,
    # and find_islands largest first with ties in label order.
    labels, sizes = island_labels(graph, np.array(open_, dtype=bool))
    comps = reference_components(adjacency, open_)
    assert [set(np.flatnonzero(labels == k).tolist()) for k in range(len(sizes))] == comps
    islands = find_islands(graph, alive=[v for v in range(n) if open_[v]])
    assert [i.ap_ids for i in islands] == [
        frozenset(c) for c in sorted(comps, key=len, reverse=True)
    ]


def _three_aps():
    return APGraph(
        [AccessPoint(i, Point(40.0 * i, 0.0), i) for i in range(3)],
        transmission_range=50,
    )


@pytest.mark.parametrize(
    "query",
    [
        lambda g: g.shortest_path(0, 7),
        lambda g: g.shortest_path(7, 0),
        lambda g: g.shortest_path(-1, 0),
        lambda g: g.shortest_path(0, -1),
        lambda g: g.min_hops_to_building(-1, 2),
        lambda g: g.min_hops_to_building(3, 2),
        lambda g: g.min_hops_to_building(-1, 99),
        lambda g: honest_path_exists(g, -1, 2, frozenset()),
        lambda g: honest_path_exists(g, 3, 2, frozenset()),
        lambda g: find_islands(g, alive={-1}),
        lambda g: find_islands(g, alive={0, 3}),
        lambda g: list(levels(g, -1)),
    ],
)
def test_ap_id_outside_graph_raises(query):
    with pytest.raises(IndexError):
        query(_three_aps())
