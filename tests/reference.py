"""Plain reference implementations the tests compare against.

- :func:`reference_dijkstra`: the planners run scipy's C Dijkstra; this
  is a plain binary-heap Dijkstra over a ``neighbors_of(node) ->
  {neighbor: weight}`` function, sharing nothing with them.
- :func:`reference_bfs` and :func:`reference_components`: plain queue
  BFS (hop levels, parents, components), against the frontier-at-a-time
  search of ``repro.mesh.reach``.
- :class:`ReferenceAliveState`: the scenario driver's alive-AP rules on
  Python sets with scalar point-in-polygon tests, against its masks.
- :func:`reference_unit_disk`: the AP mesh built with one grid radius
  query per AP, against ``APGraph``'s vectorised grid join.
- :func:`reference_contains`: point-in-polygon with the boundary pass
  before the ray cast, against ``Polygon.contains``.
"""

import math
import random
from collections import deque
from heapq import heappop, heappush

from repro.experiments import seed_for
from repro.geometry import GridIndex
from repro.mesh import PowerProfile, PowerSource, assign_power_profiles


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


def reference_bfs(adjacency, sources, open_):
    """Plain queue BFS from ``sources`` through the ``open_`` nodes.

    ``adjacency[i]`` lists node ``i``'s neighbours; ``open_`` is a
    sequence of bools, and a source that is not open is not reached.
    Returns ``(dist, parent)`` dicts: each reached node's hop count, and
    for each non-source the node it was first reached from.
    """
    dist = {}
    parent = {}
    queue = deque()
    for s in sources:
        if open_[s] and s not in dist:
            dist[s] = 0
            queue.append(s)
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if open_[v] and v not in dist:
                dist[v] = dist[u] + 1
                parent[v] = u
                queue.append(v)
    return dist, parent


def reference_components(adjacency, alive):
    """Connected components of the ``alive`` nodes, by plain queue BFS.

    ``adjacency[i]`` lists node ``i``'s neighbours; ``alive`` is a
    sequence of bools.  Returns a list of sets, each search started
    from the smallest node not yet reached.
    """
    seen = [not a for a in alive]
    comps = []
    for start in range(len(alive)):
        if seen[start]:
            continue
        seen[start] = True
        comp = {start}
        queue = deque([start])
        while queue:
            u = queue.popleft()
            for v in adjacency[u]:
                if not seen[v]:
                    seen[v] = True
                    comp.add(v)
                    queue.append(v)
        comps.append(comp)
    return comps


def reference_unit_disk(aps, transmission_range):
    """The unit-disk adjacency lists of ``aps``, one radius query per AP.

    A grid of cell size ``max(max range, 1)`` filled in id order; AP
    ``i``'s list is its :meth:`GridIndex.query_radius` result at its own
    range, minus itself and every AP farther than the smaller of the two
    ranges, in query order.
    """
    eff = [transmission_range if ap.range_m is None else ap.range_m for ap in aps]
    index = GridIndex(cell_size=max([transmission_range, 1.0, *eff]))
    for ap in aps:
        index.insert(ap.id, ap.position)
    adjacency = [[] for _ in aps]
    for ap in aps:
        for other in index.query_radius(ap.position, eff[ap.id]):
            if other == ap.id:
                continue
            if ap.position.distance_to(aps[other].position) <= min(eff[ap.id], eff[other]):
                adjacency[ap.id].append(other)
    return adjacency


def reference_contains(polygon, p):
    """Point-in-polygon, boundary pass first: within 1e-9 of an edge is
    inside, otherwise the ray-casting parity decides."""
    min_x, min_y, max_x, max_y = polygon.bbox
    if not (min_x <= p.x <= max_x and min_y <= p.y <= max_y):
        return False
    if any(seg.distance_to_point(p) < 1e-9 for seg in polygon.edges()):
        return True
    inside = False
    verts = polygon.vertices
    j = len(verts) - 1
    for i in range(len(verts)):
        vi, vj = verts[i], verts[j]
        if (vi.y > p.y) != (vj.y > p.y):
            if p.x < vj.x + (p.y - vj.y) * (vi.x - vj.x) / (vi.y - vj.y):
                inside = not inside
        j = i
    return inside


class ReferenceAliveState:
    """The scenario driver's alive-AP rules on sets and dicts.

    A mirror of the driver's timeline state, fed the same events: AP
    coverage by scalar ``Polygon.contains``, recomputed on every query;
    destroyed APs as a set; churn recovery epochs as a dict; each AP's
    :class:`~repro.mesh.PowerProfile` asked through ``alive_at``.
    ``graph`` is always the driver's current mesh.
    """

    def __init__(self, spec, graph):
        self.spec = spec
        self.profiles = assign_power_profiles(
            graph.aps,
            random.Random(seed_for(spec.world.seed, 0, spec.stream() + ":power")),
            battery_fraction=spec.battery_fraction,
            generator_fraction=spec.generator_fraction,
            battery_hours_range=spec.battery_hours_range,
        )
        self.destroyed = set()
        self.churn_until = {}  # ap id -> recovery epoch
        self.outages = []  # (region, start epoch)

    def outage(self, region, epoch):
        self.outages.append((region, epoch))

    def restore(self, region):
        self.outages = [
            (r, start) for r, start in self.outages if region is not None and r != region
        ]

    def damage(self, graph, area):
        for ap in graph.aps:
            if ap.id not in self.destroyed and area.contains(ap.position):
                self.destroyed.add(ap.id)

    def churn(self, graph, ev, epoch):
        eligible = [
            ap.id
            for ap in graph.aps
            if ap.id not in self.destroyed and self.churn_until.get(ap.id, 0) <= epoch
        ]
        count = int(ev.rate * len(eligible))
        if count == 0:
            return
        rng = random.Random(
            seed_for(self.spec.world.seed, epoch, self.spec.stream() + ":churn")
        )
        for ap_id in rng.sample(eligible, count):
            self.churn_until[ap_id] = epoch + ev.down_epochs

    def deployed(self, new_ids):
        for ap_id in new_ids:
            self.profiles[ap_id] = PowerProfile(PowerSource.GENERATOR)

    def alive_set(self, graph, epoch):
        hour = epoch * self.spec.epoch_hours
        # Longest-running outage covering each AP.
        elapsed = {}
        for region, start_epoch in self.outages:
            hours_out = hour - start_epoch * self.spec.epoch_hours
            covered = (
                range(len(graph.aps))
                if region is None
                else [ap.id for ap in graph.aps if region.contains(ap.position)]
            )
            for ap_id in covered:
                if elapsed.get(ap_id, -1.0) < hours_out:
                    elapsed[ap_id] = hours_out
        alive = set()
        for ap_id in range(len(graph.aps)):
            if ap_id in self.destroyed:
                continue
            if self.churn_until.get(ap_id, 0) > epoch:
                continue
            hours_out = elapsed.get(ap_id)
            if hours_out is not None and not self.profiles[ap_id].alive_at(hours_out):
                continue
            alive.add(ap_id)
        return alive
