"""Event-driven simulation of one CityMesh broadcast (§4).

A packet is injected at a source AP; every receiving AP applies a
:class:`RebroadcastPolicy` (for CityMesh, conduit membership) and, if
positive, rebroadcasts once after a small random jitter.  The
simulation records delivery to the destination building and the total
number of transmissions — the numerator of the paper's transmission-
overhead metric.

This module owns the vocabulary (policies, :class:`SimParams`,
:class:`BroadcastResult`) and the **reference** engine: the
callback DES inside :func:`simulate_broadcast`, reached with
``fast=False`` and kept as the oracle the equivalence tests compare
against.  Every other caller runs the group-event kernel in
:mod:`repro.sim.columnar`, which ``fast=True`` (the default) hands off
to; the flag selects oracle vs kernel and nothing else.
"""

from __future__ import annotations

import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Protocol

import numpy as np

from ..city import City
from ..core import ConduitMembership, PacketHeader
from ..geometry import ConduitPath
from ..geometry.columnar import _contains_lanes
from ..mesh import APGraph, AccessPoint
from ..mesh.verdicts import conduit_mask
from ..obs import REGISTRY
from .engine import Environment
from .radio import DEFAULT_JITTER_S, UnitDiskRadio

# Registry instruments shared by the kernel and the reference engine.
# Flushed once per simulated broadcast from the finished result — the
# event loops themselves carry zero instrumentation overhead.
_M_BROADCASTS = REGISTRY.counter("sim.broadcasts")
_M_EVENTS = REGISTRY.counter("sim.events_processed")
_M_TX = REGISTRY.counter("sim.transmissions")
_M_REBROADCASTS = REGISTRY.counter("sim.rebroadcasts")
_M_SUPPRESSED = REGISTRY.counter("sim.suppressed")
_M_DELIVERED = REGISTRY.counter("sim.delivered")


def record_broadcast_metrics(result: "BroadcastResult") -> None:
    """Flush one finished broadcast's accounting into the registry.

    Events processed = receptions + transmissions (every queue pop the
    engine dispatched); rebroadcasts exclude the source's mandatory
    first transmission.
    """
    _M_BROADCASTS.inc()
    _M_EVENTS.inc(result.receptions + result.transmissions)
    _M_TX.inc(result.transmissions)
    if result.transmissions > 0:
        _M_REBROADCASTS.inc(result.transmissions - 1)
    _M_SUPPRESSED.inc(result.suppressed)
    if result.delivered:
        _M_DELIVERED.inc()


class RebroadcastPolicy(Protocol):
    """Decides whether an AP that just received a packet repeats it.

    A stateless policy also offers ``verdict_mask(graph)``, a bool array
    of ``should_rebroadcast(graph.aps[i])``, which the kernel reads once
    per flow; others (gossip, which may draw from the simulation RNG;
    user classes) are asked per fresh receiver, in reference RNG order.
    """

    def should_rebroadcast(self, ap: AccessPoint) -> bool:
        """True if this AP should rebroadcast the packet once."""
        ...


@dataclass
class ConduitPolicy:
    """CityMesh's policy: rebroadcast iff the AP's *building* falls
    within the packet's conduits.

    §3: "Only APs in buildings that fall within the geographic area of
    the conduits … rebroadcast"; §4 attributes the 13x overhead to
    "all the APs within a building rebroadcast".  Membership is thus
    decided per building — the footprint overlaps a conduit — which
    every AP can evaluate from the shared map plus its own building id.

    ``_memo`` holds per-building verdicts for the callers that ask once
    per reception: the reference DES (which the pipeline benchmark's
    reference check replays) and :func:`~repro.sim.simulate_traffic`.
    ``verdict_mask`` ignores it.
    """

    conduits: ConduitPath
    city: City
    _memo: dict[int, bool] = field(default_factory=dict, repr=False)

    @staticmethod
    def from_header(
        membership: ConduitMembership, header: PacketHeader, city: City
    ) -> "ConduitPolicy":
        """Build the policy the way a real AP would: decode and look up."""
        return ConduitPolicy(conduits=membership.conduits_of(header), city=city)

    def should_rebroadcast(self, ap: AccessPoint) -> bool:
        verdict = self._memo.get(ap.building_id)
        if verdict is None:
            footprint = self.city.building(ap.building_id).polygon
            verdict = self.conduits.intersects_polygon(footprint)
            self._memo[ap.building_id] = verdict
        return verdict

    def verdict_mask(self, graph: APGraph) -> np.ndarray:
        return conduit_mask(graph, self.city, self.conduits)


@dataclass(frozen=True)
class PositionConduitPolicy:
    """Ablation variant: membership by exact AP position.

    Stricter than the paper's building-level rule — only APs whose own
    coordinates fall inside a conduit rebroadcast.  Cuts overhead but
    breaks conduit connectivity when conduits clip buildings, which is
    the behaviour the paper's building-level rule avoids.
    """

    conduits: ConduitPath

    def should_rebroadcast(self, ap: AccessPoint) -> bool:
        return self.conduits.contains(ap.position)

    def verdict_mask(self, graph: APGraph) -> np.ndarray:
        """Vectorized ``conduits.contains(ap.position)`` per AP, bit-exact."""
        px, py = graph.position_arrays()
        out = np.zeros(len(graph), dtype=bool)
        for rect in self.conduits.rects:
            undecided = ~out
            if (rect.end - rect.start).norm_sq() == 0.0:
                # Degenerate disc leg: scalar fallback (hypot-rounding
                # subtleties live here, and these legs are rare).
                for i in np.nonzero(undecided)[0].tolist():
                    if rect.contains(graph.aps[i].position):
                        out[i] = True
            else:
                out[undecided] |= _contains_lanes(rect, px[undecided], py[undecided])
        return out


@dataclass(frozen=True)
class FloodPolicy:
    """Blind flooding: every AP rebroadcasts everything once."""

    def should_rebroadcast(self, ap: AccessPoint) -> bool:
        return True

    def verdict_mask(self, graph: APGraph) -> np.ndarray:
        return np.ones(len(graph), dtype=bool)


@dataclass
class GossipPolicy:
    """Probabilistic gossip: rebroadcast with fixed probability ``p``."""

    p: float
    rng: random.Random

    def __post_init__(self) -> None:
        if not 0 <= self.p <= 1:
            raise ValueError(f"gossip probability must be in [0, 1], got {self.p}")

    def should_rebroadcast(self, ap: AccessPoint) -> bool:
        return self.rng.random() < self.p


@dataclass
class SimParams:
    """Knobs of the broadcast simulation.

    ``suppression_threshold`` enables counter-based duplicate
    suppression (the classic broadcast-storm mitigation): an AP whose
    rebroadcast is pending cancels it if it has already heard the same
    packet at least that many times when its jitter timer fires.  The
    redundant copies prove the neighbourhood is covered, so skipping
    the transmission is nearly free — this is one concrete instance of
    §4's "we are confident that this overhead can be reduced".  ``None``
    (default) reproduces the paper's behaviour exactly.
    """

    jitter_s: float = DEFAULT_JITTER_S
    max_sim_time_s: float = 120.0
    suppression_threshold: int | None = None

    def __post_init__(self) -> None:
        if self.jitter_s < 0:
            raise ValueError("jitter must be non-negative")
        if self.max_sim_time_s <= 0:
            raise ValueError("simulation horizon must be positive")
        if self.suppression_threshold is not None and self.suppression_threshold < 1:
            raise ValueError("suppression threshold must be at least 1")


@dataclass
class BroadcastResult:
    """Outcome of one simulated broadcast."""

    delivered: bool
    delivery_time_s: float | None
    transmissions: int
    receptions: int
    duplicates: int
    suppressed: int = 0
    transmitters: set[int] = field(default_factory=set)
    heard: set[int] = field(default_factory=set)

    @property
    def reach(self) -> int:
        """Number of distinct APs that heard the packet."""
        return len(self.heard)


def simulate_broadcast(
    graph: APGraph,
    source_ap: int,
    dest_building: int,
    policy: RebroadcastPolicy,
    rng: random.Random,
    radio: UnitDiskRadio | None = None,
    params: SimParams | None = None,
    compromised: frozenset[int] = frozenset(),
    dead_aps: frozenset[int] = frozenset(),
    fast: bool = True,
) -> BroadcastResult:
    """Simulate one packet's life through the mesh.

    Args:
        graph: the ground-truth AP mesh.
        source_ap: id of the AP that injects the packet.
        dest_building: building id whose postbox the packet targets;
            delivery means *any* AP in that building hears the packet.
        policy: per-AP rebroadcast decision (conduit, flood, gossip…).
        rng: randomness for jitter and lossy radios.
        radio: propagation model; defaults to a lossless unit disk.
        params: timing knobs.
        compromised: APs that receive but silently drop (blackholes).
        dead_aps: APs that are physically absent (unpowered, destroyed,
            churned out): they never receive, transmit, or deliver.
            Filtering happens per transmission against the prebuilt
            adjacency, so evaluating many die-off states of one mesh
            needs no :class:`~repro.mesh.APGraph` rebuilds.  The dead
            set is consulted *before* any radio loss draw, so seeded
            results are identical between the reference engine and the
            kernel for any dead set.
        fast: run the group-event kernel in :mod:`repro.sim.columnar`
            as a one-flow batch (seeded results are identical);
            ``False`` runs the reference callback engine,
            kept as the oracle for the equivalence tests.

    Returns:
        The delivery outcome and transmission accounting.

    Raises:
        ValueError: if the source AP is in ``dead_aps``.
    """
    if source_ap in dead_aps:
        raise ValueError(f"source AP {source_ap} is dead and cannot inject")
    if fast:
        from .columnar import FlowSpec, simulate_broadcast_batch

        flow = FlowSpec(source_ap, dest_building, policy, rng, compromised)
        return simulate_broadcast_batch(
            graph, [flow], radio=radio, params=params, dead_aps=dead_aps
        )[0]
    if radio is None:
        radio = UnitDiskRadio()
    if params is None:
        params = SimParams()
    env = Environment()
    aps = graph.aps
    seen: set[int] = set()
    copies: defaultdict[int, int] = defaultdict(int)  # copies heard per AP
    threshold = params.suppression_threshold
    neighbors = graph.neighbors
    receptions_of = radio.receptions
    result = BroadcastResult(
        delivered=False,
        delivery_time_s=None,
        transmissions=0,
        receptions=0,
        duplicates=0,
    )

    def transmit(ap_id: int) -> None:
        if threshold is not None and copies[ap_id] >= threshold:
            # Enough duplicate copies arrived during the jitter window:
            # the neighbourhood is provably covered, stay quiet.
            result.suppressed += 1
            return
        result.transmissions += 1
        result.transmitters.add(ap_id)
        audience = neighbors(ap_id)
        if dead_aps:
            # Dead receivers are filtered before the radio draws any
            # loss randomness — the kernel does the same, keeping
            # seeded RNG consumption aligned between the engines.
            audience = [v for v in audience if v not in dead_aps]
        for reception in receptions_of(audience, rng):
            env.schedule(reception.delay_s, receive, reception.receiver_id)

    def receive(ap_id: int) -> None:
        result.receptions += 1
        copies[ap_id] += 1
        if ap_id in seen:
            result.duplicates += 1
            return
        seen.add(ap_id)
        result.heard.add(ap_id)
        ap = aps[ap_id]
        if ap.building_id == dest_building and not result.delivered:
            result.delivered = True
            result.delivery_time_s = env.now
        if ap_id in compromised:
            return
        if policy.should_rebroadcast(ap):
            delay = rng.uniform(0.0, params.jitter_s) if params.jitter_s > 0 else 0.0
            env.schedule(delay, transmit, ap_id)

    # Source counts as having the packet; it delivers locally if it is
    # already in the destination building, and always transmits once.
    seen.add(source_ap)
    result.heard.add(source_ap)
    if aps[source_ap].building_id == dest_building:
        result.delivered = True
        result.delivery_time_s = 0.0
    transmit(source_ap)
    env.run(until=params.max_sim_time_s)
    record_broadcast_metrics(result)
    return result


def transmission_overhead(
    graph: APGraph, result: BroadcastResult, source_ap: int, dest_building: int
) -> float | None:
    """The paper's overhead metric: broadcasts ÷ ideal unicast hops.

    The denominator is the minimum number of transmissions needed to
    get from the source AP to any AP in the destination building on the
    same AP-placement realisation (§4).  Returns None when the packet
    was not delivered or the pair is unreachable, and infinity when the
    source is already in the destination building (0 ideal hops).
    """
    if not result.delivered:
        return None
    ideal = graph.min_hops_to_building(source_ap, dest_building)
    if ideal is None:
        return None
    if ideal == 0:
        return float("inf")
    return result.transmissions / ideal
