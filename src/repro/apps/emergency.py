"""Emergency broadcast: one-to-all dissemination during an outage.

§2 lists "look[ing] for emergency updates" among the disaster uses a
DFN must support.  An emergency broadcast inverts CityMesh's unicast
pattern: the authority floods a signed alert to *every* AP, optionally
scoped to a geographic region (evacuation zones).  Scoped alerts reuse
the conduit machinery — membership is "inside the alert region" rather
than "inside a route conduit".
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from ..city import City
from ..geometry import Polygon
from ..mesh import APGraph, AccessPoint
from ..mesh.verdicts import footprint_mask
from ..postbox import KeyPair, PublicKey, verify
from ..sim import SimParams, simulate_broadcast


@dataclass(frozen=True)
class Alert:
    """A signed emergency alert.

    ``region`` of None means city-wide; otherwise only APs whose
    building intersects the region rebroadcast (and only people there
    are expected to care).
    """

    body: bytes
    issuer: PublicKey
    signature: bytes
    region: Polygon | None = None

    @staticmethod
    def issue(
        issuer: KeyPair, body: bytes, region: Polygon | None = None
    ) -> "Alert":
        """Create and sign an alert."""
        return Alert(
            body=body,
            issuer=issuer.public,
            signature=issuer.sign(body),
            region=region,
        )

    def is_authentic(self) -> bool:
        """Verify the issuer's signature (no CA required: the issuer's
        key is pre-distributed like any postbox address)."""
        return verify(self.issuer, self.body, self.signature)


@dataclass
class RegionPolicy:
    """Rebroadcast iff the AP's building intersects the alert region.

    City-wide alerts (region None) degrade to flooding, which is the
    correct emergency behaviour.
    """

    city: City
    region: Polygon | None

    def should_rebroadcast(self, ap: AccessPoint) -> bool:
        if self.region is None:
            return True
        return _polygons_intersect(self.city.building(ap.building_id).polygon, self.region)

    def verdict_mask(self, graph: APGraph) -> np.ndarray:
        if self.region is None:
            return np.ones(len(graph), dtype=bool)
        return footprint_mask(graph, self.city, lambda f: _polygons_intersect(f, self.region))


def _polygons_intersect(a: Polygon, b: Polygon) -> bool:
    # Boxes apart by more than the edges' 1e-12 touching slop cannot
    # meet; this keeps a region mask, one test per building, cheap.
    ax0, ay0, ax1, ay1 = a.bbox
    bx0, by0, bx1, by1 = b.bbox
    if ax1 + 1e-9 < bx0 or bx1 + 1e-9 < ax0 or ay1 + 1e-9 < by0 or by1 + 1e-9 < ay0:
        return False
    if a.contains(b.vertices[0]) or b.contains(a.vertices[0]):
        return True
    return any(ea.intersects(eb) for ea in a.edges() for eb in b.edges())


@dataclass(frozen=True)
class BroadcastCoverage:
    """How far an alert reached."""

    delivered_buildings: int
    target_buildings: int
    transmissions: int
    heard_aps: int

    @property
    def coverage(self) -> float:
        """Fraction of target buildings with at least one alerted AP."""
        if self.target_buildings == 0:
            return 0.0
        return self.delivered_buildings / self.target_buildings


def broadcast_alert(
    city: City,
    graph: APGraph,
    alert: Alert,
    origin_ap: int,
    rng: random.Random,
    params: SimParams | None = None,
) -> BroadcastCoverage:
    """Disseminate an alert and measure building-level coverage.

    Raises:
        ValueError: for an alert whose signature does not verify —
            honest APs refuse to propagate unauthenticated alerts.
    """
    if not alert.is_authentic():
        raise ValueError("alert signature invalid: refusing to propagate")
    policy = RegionPolicy(city=city, region=alert.region)
    # Destination building -1 never matches: we want the full spread.
    result = simulate_broadcast(
        graph, origin_ap, dest_building=-1, policy=policy, rng=rng, params=params
    )
    # The target buildings are exactly those whose APs rebroadcast.
    aps = graph.aps
    targets = {aps[i].building_id for i in np.flatnonzero(policy.verdict_mask(graph))}
    heard_buildings = {aps[i].building_id for i in result.heard}
    return BroadcastCoverage(
        delivered_buildings=len(targets & heard_buildings),
        target_buildings=len(targets),
        transmissions=result.transmissions,
        heard_aps=len(result.heard),
    )
