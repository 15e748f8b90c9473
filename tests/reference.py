"""An independent shortest-path reference for the planner tests.

The planners run scipy's C Dijkstra; this is a plain binary-heap
Dijkstra over a ``neighbors_of(node) -> {neighbor: weight}`` function,
so the tests compare against code that shares nothing with them.
"""

import math
from heapq import heappop, heappush


def reference_dijkstra(neighbors_of, src, dst):
    """Plain heap Dijkstra from ``src`` to ``dst``.

    Returns ``(route, cost)``; ``(None, inf)`` when ``dst`` is
    unreachable.  Equal-cost frontiers pop in ``(cost, node)`` order.
    """
    dist = {src: 0.0}
    parent = {}
    done = set()
    heap = [(0.0, src)]
    while heap:
        cost, u = heappop(heap)
        if u in done:
            continue
        done.add(u)
        if u == dst:
            route = [dst]
            while route[-1] != src:
                route.append(parent[route[-1]])
            route.reverse()
            return route, cost
        for v, w in neighbors_of(u).items():
            nd = cost + w
            if v not in done and nd < dist.get(v, math.inf):
                dist[v] = nd
                parent[v] = u
                heappush(heap, (nd, v))
    return None, math.inf
