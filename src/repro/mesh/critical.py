"""Critical-infrastructure analysis of the AP mesh.

Articulation points (cut vertices) are the APs whose loss disconnects
part of the mesh — exactly the nodes a capable adversary would target
(§1's compromised-node threat), and the places where the §4 bridging
budget is best spent preemptively.
"""

from __future__ import annotations

from .graph import APGraph


def articulation_points(graph: APGraph) -> set[int]:
    """All cut vertices of the mesh (iterative Tarjan low-link).

    An AP is an articulation point iff removing it increases the number
    of connected components.
    """
    n = len(graph.aps)
    visited = [False] * n
    discovery = [0] * n
    low = [0] * n
    parent = [-1] * n
    points: set[int] = set()
    timer = 0

    for root in range(n):
        if visited[root]:
            continue
        # Iterative DFS: stack holds (node, neighbour iterator).
        stack = [(root, iter(graph.neighbors(root)))]
        visited[root] = True
        discovery[root] = low[root] = timer
        timer += 1
        root_children = 0
        while stack:
            node, neighbors = stack[-1]
            advanced = False
            for neighbor in neighbors:
                if not visited[neighbor]:
                    visited[neighbor] = True
                    discovery[neighbor] = low[neighbor] = timer
                    timer += 1
                    parent[neighbor] = node
                    if node == root:
                        root_children += 1
                    stack.append((neighbor, iter(graph.neighbors(neighbor))))
                    advanced = True
                    break
                if neighbor != parent[node]:
                    low[node] = min(low[node], discovery[neighbor])
            if advanced:
                continue
            stack.pop()
            if stack:
                parent_node = stack[-1][0]
                low[parent_node] = min(low[parent_node], low[node])
                if parent_node != root and low[node] >= discovery[parent_node]:
                    points.add(parent_node)
        if root_children > 1:
            points.add(root)
    return points
