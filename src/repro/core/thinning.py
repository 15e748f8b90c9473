"""Overhead reduction: stateless thinning of conduit rebroadcasts.

§4 measures a 13x transmission overhead "because currently all the APs
within a building rebroadcast, and there are other inefficiencies; we
are confident that this overhead can be reduced".  This module
implements the natural stateless reduction: an AP in a conduit
building rebroadcasts only when a **deterministic per-(AP, message)
hash** falls below a thinning probability ``p``.

Key properties:

- *stateless*: the decision needs only the AP's own id, the message id
  from the header, and ``p`` — no coordination, no neighbour state;
- *deterministic*: retransmissions of the same message pick the same
  rebroadcasters (no oscillation), while different messages sample
  different subsets (no persistent dead spots);
- *building-aware*: the first AP population is still selected by the
  paper's building-in-conduit rule, so the geometry guarantees are
  untouched — only the redundancy within each building is thinned.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from ..city import City
from ..geometry import ConduitPath
from ..mesh import APGraph, AccessPoint
from ..mesh.verdicts import conduit_mask


def thinning_hash(ap_id: int, message_id: int) -> float:
    """A uniform [0, 1) hash shared by every honest implementation."""
    digest = hashlib.sha256(
        ap_id.to_bytes(8, "big") + message_id.to_bytes(8, "big")
    ).digest()
    return int.from_bytes(digest[:8], "big") / 2**64


@dataclass
class ThinnedConduitPolicy:
    """Conduit membership with per-message probabilistic thinning.

    Args:
        conduits: the packet's decoded conduit chain.
        city: the shared map.
        message_id: the packet's message id (seeds the hash).
        p: rebroadcast probability for conduit-building APs.  ``p=1``
            is exactly the paper's behaviour.
    """

    conduits: ConduitPath
    city: City
    message_id: int
    p: float

    def __post_init__(self) -> None:
        if not 0 < self.p <= 1:
            raise ValueError(f"thinning probability must be in (0, 1], got {self.p}")

    def should_rebroadcast(self, ap: AccessPoint) -> bool:
        footprint = self.city.building(ap.building_id).polygon
        if not self.conduits.intersects_polygon(footprint):
            return False
        return self.p >= 1.0 or thinning_hash(ap.id, self.message_id) < self.p

    def verdict_mask(self, graph: APGraph) -> np.ndarray:
        """The conduit mask, thinned by hashing only its conduit APs."""
        mask = conduit_mask(graph, self.city, self.conduits)
        if self.p < 1.0:
            for i in np.flatnonzero(mask).tolist():
                mask[i] = thinning_hash(graph.aps[i].id, self.message_id) < self.p
        return mask
