"""AODV-style reactive route discovery (Perkins & Royer [48]).

The paper's related-work section notes that reactive MANET protocols
flood a route request (RREQ) through the network on every route
construction, "quickly wasting the bandwidth which should be reserved
for data packet transmissions".  This model charges exactly that cost:

- RREQ: a network-wide flood over the source's connected component
  (every node rebroadcasts once — the classic expanding-ring search is
  omitted, matching the worst but common case of an unknown target),
- RREP: unicast back along the reverse path (``hops`` transmissions),
- data: unicast along the discovered path (``hops`` transmissions).
"""

from __future__ import annotations

from ..mesh import APGraph
from .outcome import RoutingOutcome


def aodv(graph: APGraph, source_ap: int, dest_building: int) -> RoutingOutcome:
    """Route one packet with AODV-style discovery plus unicast data."""
    hops = graph.min_hops_to_building(source_ap, dest_building)
    labels, sizes = graph.component_ids()
    rreq_flood = int(sizes[labels[source_ap]])
    if hops is None:
        # The RREQ flood happens (and is wasted) even when the target
        # is unreachable.
        return RoutingOutcome(
            scheme="aodv",
            delivered=False,
            data_transmissions=0,
            control_transmissions=rreq_flood,
        )
    rrep_unicast = hops
    return RoutingOutcome(
        scheme="aodv",
        delivered=True,
        data_transmissions=hops,
        control_transmissions=rreq_flood + rrep_unicast,
        path_hops=hops,
    )
