"""The §5 scaling argument, quantified: control traffic per node.

The paper's case against traditional protocols is that "any routing
protocol over wireless links that exchanges any form of keepalive or
routing information is likely to run into scaling and reliability
challenges" at city scale.  This module turns that argument into
numbers using each protocol's own control-message structure:

- **DSDV** (proactive distance-vector): periodic full-table dumps;
  table size grows with the network, so per-node control bytes are
  O(n) per period.
- **OLSR** (proactive link-state): HELLOs are local, but TC floods
  traverse every node; per-node forwarded TC bytes grow with n.
- **AODV** (reactive): every route discovery floods the network, so a
  node forwards O(arrival rate x n) RREQs regardless of who talks.
- **CityMesh**: zero control messages — nodes consult the cached map.
  The cost moved off the air into storage, so we also report the map
  cache per node (which is what actually scales with city size).

The model is first-order (protocol constants from the RFCs / papers,
no header compression or triggered-update optimisations), which is all
the comparison needs: the *growth rates* are the point.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..analysis import format_table
from .parallel import TrialRunner

# Protocol constants (first-order, from the respective specifications).
DSDV_PERIOD_S = 15.0           # full-dump interval
DSDV_ENTRY_BYTES = 12          # destination, metric, sequence number
OLSR_HELLO_PERIOD_S = 2.0
OLSR_HELLO_BYTES = 60          # typical HELLO with ~10 neighbours
OLSR_TC_PERIOD_S = 5.0
OLSR_TC_BYTES = 40             # TC with MPR selector list
AODV_RREQ_BYTES = 24
MAP_BYTES_PER_BUILDING = 40    # id + compressed footprint summary
BUILDINGS_PER_NODE = 0.3       # buildings per AP at the paper's density


@dataclass(frozen=True)
class ScalingRow:
    """Per-node control load at one network size."""

    nodes: int
    dsdv_bytes_per_min: float
    olsr_bytes_per_min: float
    aodv_bytes_per_min: float
    citymesh_bytes_per_min: float
    citymesh_map_cache_mb: float


def control_load(
    nodes: int,
    route_requests_per_node_per_hour: float = 6.0,
) -> ScalingRow:
    """Per-node control traffic for a network of ``nodes`` APs.

    Args:
        nodes: network size.
        route_requests_per_node_per_hour: AODV workload assumption —
            how often each node needs a fresh route.

    Raises:
        ValueError: for a non-positive node count.
    """
    if nodes <= 0:
        raise ValueError("node count must be positive")
    # DSDV: each node broadcasts its full table every period; every
    # node also receives/forwards its neighbours' dumps, but the
    # dominant per-node term is the table itself.
    dsdv = (nodes * DSDV_ENTRY_BYTES) / DSDV_PERIOD_S * 60.0
    # OLSR: HELLO (local, constant) + TC floods: every node forwards
    # every other node's TC once per period.
    olsr = (
        OLSR_HELLO_BYTES / OLSR_HELLO_PERIOD_S
        + nodes * OLSR_TC_BYTES / OLSR_TC_PERIOD_S / 60.0  # TCs are MPR-damped ~60x
    ) * 60.0
    # AODV: each discovery floods all n nodes, so each node forwards
    # (total discoveries / n) * n = total discoveries... per node the
    # forwarded share is one RREQ per network-wide discovery.
    discoveries_per_min = nodes * route_requests_per_node_per_hour / 60.0
    aodv = discoveries_per_min * AODV_RREQ_BYTES
    # CityMesh: zero control bytes on the air; the map cache scales
    # with the city, not with traffic.
    map_mb = nodes * BUILDINGS_PER_NODE * MAP_BYTES_PER_BUILDING / 1e6
    return ScalingRow(
        nodes=nodes,
        dsdv_bytes_per_min=dsdv,
        olsr_bytes_per_min=olsr,
        aodv_bytes_per_min=aodv,
        citymesh_bytes_per_min=0.0,
        citymesh_map_cache_mb=map_mb,
    )


def run_scaling(
    sizes: tuple[int, ...] = (1_000, 10_000, 100_000, 1_000_000),
) -> list[ScalingRow]:
    """The §5 scaling table across network sizes.

    Each size is independent, so the rows run as trials of a serial
    runner and return in ``sizes`` order.
    """
    return TrialRunner().map(control_load, list(sizes))


def format_scaling(rows: list[ScalingRow]) -> str:
    """Scaling table (control bytes per node per minute)."""
    return format_table(
        [
            "nodes",
            "DSDV B/min",
            "OLSR B/min",
            "AODV B/min",
            "CityMesh B/min",
            "CityMesh map (MB)",
        ],
        [
            [
                r.nodes,
                r.dsdv_bytes_per_min,
                r.olsr_bytes_per_min,
                r.aodv_bytes_per_min,
                r.citymesh_bytes_per_min,
                r.citymesh_map_cache_mb,
            ]
            for r in rows
        ],
        title=(
            "§5 scaling model: per-node control traffic vs network size\n"
            "(first-order protocol constants; CityMesh trades air-time "
            "control for a static map cache)"
        ),
    )
