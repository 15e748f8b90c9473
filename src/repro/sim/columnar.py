"""The broadcast kernel: frozen worlds, batched flows, group events.

This module is the one broadcast engine everything but the equivalence
tests runs (:func:`repro.sim.simulate_broadcast` hands its default
``fast=True`` case to :func:`simulate_broadcast_batch` as a one-flow
batch).  The mutable world is **frozen once** into flat numpy arrays
and every flow of an epoch runs against the shared frozen state:

- :func:`frozen_epoch` — int32 CSR adjacency with the dead APs already
  filtered out, cached per ``(graph, dead_aps)`` so repeated flows (and
  repeated epochs with an unchanged dead set) freeze nothing;
- :func:`policy_verdict_array` — per-AP rebroadcast bitmaps computed
  columnar-ly: conduit membership goes through the bit-exact
  :func:`repro.geometry.path_overlap_mask` kernel over the city's
  cached :class:`~repro.geometry.PolygonColumns` instead of one scalar
  ``intersects_polygon`` call per building;
- :func:`run_columnar` — the group-event loop for one flow;
- :func:`simulate_broadcast_batch` — the entry point: freeze once,
  then run every flow with its own policy/RNG/destination.

Equivalence contract
--------------------

Results are **bit-for-bit identical** to the reference DES engine
(:func:`repro.sim.broadcast.simulate_broadcast` with ``fast=False``,
kept only as the oracle tests compare against) for the same seeds.
The kernel exploits one structural fact: all receptions pushed by a
single transmission share one timestamp and a *contiguous* block of
sequence numbers, so in the heap's total ``(time, seq)`` order no other
event can interleave with them.  The whole block therefore becomes ONE
heap entry (a view into the frozen CSR), and its per-reception effects
(copy counters, duplicate accounting, delivery, rebroadcast selection)
are applied with vectorized integer ops — which are exact, so equality
with the scalar engine is structural, not approximate.  RNG draws stay
in reference order: per-neighbour loss draws happen at transmit time in
adjacency order, verdict and jitter draws at reception time in filtered
audience order.

Two lanes cover what a frozen bitmap or an inlined radio cannot:

- **lazy verdict lane** — when :func:`policy_verdict_array` returns
  ``None`` (stateful gossip, user classes, a ``ConduitPolicy`` whose
  memo is pre-seeded) the group handler walks the fresh, non-compromised
  receivers in audience order, calling ``policy.should_rebroadcast`` and
  drawing the jitter right after each positive verdict — the order the
  reference consumes a shared RNG in;
- **generic radio lane** — a radio whose type is not exactly
  :class:`UnitDiskRadio`/:class:`LossyRadio` is asked for its
  ``receptions`` (own delays, own loss draws) and each becomes a
  single-receiver group with its own sequence number.

Lifecycle and invalidation: an :class:`~repro.mesh.APGraph` is
immutable after construction (bridge deployments build a *new* graph),
so frozen CSR arrays attached to a graph never go stale.  Routing-side
mutations bump ``BuildingGraph.version`` and yield *new*
:class:`~repro.geometry.ConduitPath` values, which miss the
value-keyed verdict cache naturally; stale entries age out by bound.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Sequence

import numpy as np

from ..geometry import PolygonColumns, path_overlap_mask
from ..geometry.columnar import _contains_lanes
from ..mesh import APGraph
from ..obs import REGISTRY
from .broadcast import (
    BroadcastResult,
    ConduitPolicy,
    FloodPolicy,
    PositionConduitPolicy,
    RebroadcastPolicy,
    SimParams,
    record_broadcast_metrics,
)
from .radio import LossyRadio, UnitDiskRadio

_RECEIVE = 0
_TRANSMIT = 1

#: Bound on cached frozen epochs per graph: a scenario run touches one
#: dead set per epoch and replays it across all of the epoch's flows.
_EPOCH_CACHE_CAP = 8
#: Bound on cached verdict masks per city (one per distinct conduit
#: path: initial flows + replans of a scenario run fit comfortably).
_VERDICT_CACHE_CAP = 256

#: Flows the kernel ran; surfaces in every ``REGISTRY.snapshot()``.
_M_COLUMNAR_FLOWS = REGISTRY.counter("sim.columnar.flows")


# ----------------------------------------------------------------------
# Frozen world state
# ----------------------------------------------------------------------
@dataclass
class FrozenEpoch:
    """One epoch's immutable simulation state, in flat arrays.

    ``indptr``/``indices`` form the alive-filtered CSR adjacency: the
    neighbours of AP ``i`` are ``indices[indptr[i]:indptr[i+1]]``, in
    the same order as ``graph.neighbors(i)`` minus the dead — which is
    exactly the order the reference engine walks after its own dead
    filter, so loss draws and sequence numbers line up.
    """

    n: int
    indptr: np.ndarray  # int64, n + 1
    indices: np.ndarray  # int32, alive-filtered
    dead_mask: np.ndarray  # uint8, 1 = dead
    dead_aps: frozenset[int] = field(default_factory=frozenset)


def frozen_epoch(graph: APGraph, dead_aps: frozenset[int]) -> FrozenEpoch:
    """Freeze one epoch: dead-filtered CSR adjacency, cached per graph.

    The cache key is the dead set itself (a ``frozenset``, which caches
    its own hash); scenario epochs reuse one dead set across all flows,
    so freezing is paid once per *distinct* damage state, not per flow.
    """
    cache = getattr(graph, "_columnar_epochs", None)
    if cache is None:
        cache = {}
        graph._columnar_epochs = cache
    frozen = cache.get(dead_aps)
    if frozen is not None:
        return frozen
    indptr, indices = graph.csr()
    n = len(graph)
    dead_mask = np.zeros(n, dtype=np.uint8)
    if dead_aps:
        dead_mask[list(dead_aps)] = 1
        keep = dead_mask[indices] == 0
        # Per-row kept counts via prefix sums (reduceat mishandles
        # empty rows); the filter preserves within-row order.
        prefix = np.zeros(len(indices) + 1, dtype=np.int64)
        np.cumsum(keep, out=prefix[1:])
        counts = prefix[indptr[1:]] - prefix[indptr[:-1]]
        alive_indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=alive_indptr[1:])
        frozen = FrozenEpoch(
            n=n,
            indptr=alive_indptr,
            indices=indices[keep],
            dead_mask=dead_mask,
            dead_aps=dead_aps,
        )
    else:
        frozen = FrozenEpoch(
            n=n,
            indptr=indptr,
            indices=indices,
            dead_mask=dead_mask,
            dead_aps=dead_aps,
        )
    if len(cache) >= _EPOCH_CACHE_CAP:
        cache.clear()
    cache[dead_aps] = frozen
    return frozen


# ----------------------------------------------------------------------
# Columnar rebroadcast bitmaps
# ----------------------------------------------------------------------
def _city_columns(city) -> tuple[PolygonColumns, list, dict[int, int]]:
    """The city's footprints as (columns, polygons, building-id -> row)."""
    cached = getattr(city, "_polygon_columns", None)
    if cached is not None:
        return cached
    polygons = [b.polygon for b in city.buildings]
    cols = PolygonColumns(polygons)
    row_of = {b.id: i for i, b in enumerate(city.buildings)}
    cached = (cols, polygons, row_of)
    city._polygon_columns = cached
    return cached


def _building_rows(graph: APGraph, city, row_of: dict[int, int]) -> np.ndarray:
    """Footprint row index per AP, cached per (graph, city)."""
    cached = getattr(graph, "_columnar_building_rows", None)
    if cached is not None and cached[0] is city:
        return cached[1]
    rows = np.fromiter(
        (row_of[b] for b in graph.building_id_list()),
        dtype=np.int64,
        count=len(graph),
    )
    graph._columnar_building_rows = (city, rows)
    return rows


def _conduit_building_mask(policy: ConduitPolicy) -> np.ndarray:
    """Per-building conduit-overlap verdicts, cached per conduit path."""
    city = policy.city
    cols, polygons, _row_of = _city_columns(city)
    cache = getattr(city, "_verdict_mask_cache", None)
    if cache is None:
        cache = {}
        city._verdict_mask_cache = cache
    mask = cache.get(policy.conduits)
    if mask is None:
        mask = path_overlap_mask(cols, policy.conduits, polygons=polygons)
        if len(cache) >= _VERDICT_CACHE_CAP:
            cache.clear()
        cache[policy.conduits] = mask
    return mask


def _position_verdicts(policy: PositionConduitPolicy, graph: APGraph) -> np.ndarray:
    """Vectorized ``conduits.contains(ap.position)`` per AP, bit-exact."""
    px, py = graph.position_arrays()
    out = np.zeros(len(graph), dtype=bool)
    for rect in policy.conduits.rects:
        undecided = ~out
        if not undecided.any():
            break
        if (rect.end - rect.start).norm_sq() == 0.0:
            # Degenerate disc leg: scalar fallback (hypot-rounding
            # subtleties live here, and these legs are rare).
            contains = rect.contains
            for i in np.nonzero(undecided)[0].tolist():
                if contains(graph.aps[i].position):
                    out[i] = True
        else:
            out[undecided] |= _contains_lanes(rect, px[undecided], py[undecided])
    return out


def policy_verdict_array(
    policy: RebroadcastPolicy, graph: APGraph
) -> np.ndarray | None:
    """Per-AP rebroadcast verdicts as a bool array, or None.

    ``None`` means the policy cannot be frozen (stateful, user-defined,
    or a :class:`ConduitPolicy` with a pre-seeded memo whose entries
    must be honoured) and the kernel evaluates it lazily, one
    ``should_rebroadcast`` call per fresh receiver.
    """
    kind = type(policy)
    if kind is FloodPolicy:
        return np.ones(len(graph), dtype=bool)
    if kind is ConduitPolicy:
        if policy._memo:
            return None
        building_mask = _conduit_building_mask(policy)
        rows = _building_rows(graph, policy.city, _city_columns(policy.city)[2])
        return building_mask[rows]
    if kind is PositionConduitPolicy:
        return _position_verdicts(policy, graph)
    return None


# ----------------------------------------------------------------------
# The group-event kernel
# ----------------------------------------------------------------------
def run_columnar(
    frozen: FrozenEpoch,
    graph: APGraph,
    flow: FlowSpec,
    radio: UnitDiskRadio,
    params: SimParams,
) -> BroadcastResult:
    """One broadcast against a frozen epoch; reference-identical.

    Heap entries are ``(time, seq, kind, payload)``: a ``_TRANSMIT``
    carries one AP id, a ``_RECEIVE`` carries the whole audience of one
    transmission as a CSR view, keyed by the *first* sequence number of
    its contiguous block.  Sequence numbers are unique across entries,
    so tuple comparison never reaches the payload.
    """
    n = frozen.n
    indptr = frozen.indptr
    indices = frozen.indices
    threshold = params.suppression_threshold
    jitter = params.jitter_s
    max_time = params.max_sim_time_s
    bounded = max_time != float("inf")

    rng = flow.rng
    source_ap = flow.source_ap
    # None selects the lazy verdict lane in the receive handler.
    verdicts = policy_verdict_array(flow.policy, graph)
    should_rebroadcast = flow.policy.should_rebroadcast
    aps = graph.aps
    radio_kind = type(radio)
    lossy = radio_kind is LossyRadio
    generic_radio = not (lossy or radio_kind is UnitDiskRadio)
    tx_delay = 0.0 if generic_radio else radio.tx_delay_s
    loss_p = radio.loss_probability if lossy else 0.0

    seen = np.zeros(n, dtype=bool)
    copies = np.zeros(n, dtype=np.int64) if threshold is not None else None
    blackholes = None
    if flow.compromised:
        blackholes = np.zeros(n, dtype=bool)
        blackholes[list(flow.compromised)] = True
    is_dest = np.zeros(n, dtype=bool)
    dest_aps = graph.aps_in_building(flow.dest_building)
    if len(dest_aps):
        is_dest[list(dest_aps)] = True

    heap: list[tuple[float, int, int, object]] = []
    seq = 0
    transmissions = receptions = duplicates = suppressed = 0
    transmitters: set[int] = set()
    delivered = False
    delivery_time: float | None = None

    rng_random = rng.random
    rng_uniform = rng.uniform
    push = heappush

    def do_transmit(now: float, ap_id: int) -> None:
        nonlocal transmissions, suppressed, seq
        if copies is not None and copies[ap_id] >= threshold:
            suppressed += 1
            return
        transmissions += 1
        transmitters.add(ap_id)
        audience = indices[indptr[ap_id] : indptr[ap_id + 1]]
        if generic_radio:
            # The radio owns delays and loss draws, so its receptions
            # need not share a timestamp: one group per reception.
            for rec in radio.receptions(audience.tolist(), rng):
                receiver = np.array([rec.receiver_id], dtype=indices.dtype)
                push(heap, (now + rec.delay_s, seq, _RECEIVE, receiver))
                seq += 1
            return
        k = audience.size
        if k == 0:
            return
        if lossy:  # one draw per alive neighbour, adjacency order
            draws = np.fromiter(
                (rng_random() for _ in range(k)), dtype=np.float64, count=k
            )
            audience = audience[draws >= loss_p]
            k = audience.size
            if k == 0:
                return
        push(heap, (now + tx_delay, seq, _RECEIVE, audience))
        seq += k

    seen[source_ap] = True
    if graph.building_id_list()[source_ap] == flow.dest_building:
        delivered = True
        delivery_time = 0.0
    do_transmit(0.0, source_ap)

    while heap:
        time = heap[0][0]
        if bounded and time > max_time:
            break
        time, _first_seq, kind, payload = heappop(heap)
        if kind == _RECEIVE:
            audience = payload
            k = audience.size
            receptions += k
            if copies is not None:
                copies[audience] += 1
            fresh = audience[~seen[audience]]
            duplicates += k - fresh.size
            if fresh.size == 0:
                continue
            seen[fresh] = True
            if not delivered and is_dest[fresh].any():
                delivered = True
                delivery_time = time
            rebroadcasters = fresh
            if blackholes is not None:
                rebroadcasters = rebroadcasters[~blackholes[rebroadcasters]]
            if verdicts is None:
                # Lazy lane: verdict then jitter per receiver, which is
                # the reference order when both draw from one RNG.
                for v in rebroadcasters.tolist():
                    if should_rebroadcast(aps[v]):
                        delay = rng_uniform(0.0, jitter) if jitter > 0.0 else 0.0
                        push(heap, (time + delay, seq, _TRANSMIT, v))
                        seq += 1
                continue
            rebroadcasters = rebroadcasters[verdicts[rebroadcasters]]
            if jitter > 0.0:
                for v in rebroadcasters.tolist():
                    push(heap, (time + rng_uniform(0.0, jitter), seq, _TRANSMIT, v))
                    seq += 1
            else:
                for v in rebroadcasters.tolist():
                    push(heap, (time, seq, _TRANSMIT, v))
                    seq += 1
        else:
            do_transmit(time, payload)

    result = BroadcastResult(
        delivered=delivered,
        delivery_time_s=delivery_time,
        transmissions=transmissions,
        receptions=receptions,
        duplicates=duplicates,
        suppressed=suppressed,
        transmitters=transmitters,
        heard=set(np.nonzero(seen)[0].tolist()),
    )
    record_broadcast_metrics(result)
    return result


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
@dataclass
class FlowSpec:
    """One flow of an epoch batch: who sends what where, with what RNG."""

    source_ap: int
    dest_building: int
    policy: RebroadcastPolicy
    rng: random.Random
    compromised: frozenset[int] = frozenset()


def simulate_broadcast_batch(
    graph: APGraph,
    flows: Sequence[FlowSpec],
    radio: UnitDiskRadio | None = None,
    params: SimParams | None = None,
    dead_aps: frozenset[int] = frozenset(),
) -> list[BroadcastResult]:
    """Simulate an epoch's flows against one shared frozen world.

    The mesh is frozen once (dead-filtered CSR + dead mask) and each
    flow runs with its own policy, RNG, and destination.  Results are
    byte-identical to calling :func:`~repro.sim.simulate_broadcast`
    once per flow with the same arguments, with either ``fast=`` value.

    Raises:
        ValueError: if any flow's source AP is dead (checked up front,
            before any flow runs).
    """
    for flow in flows:
        if flow.source_ap in dead_aps:
            raise ValueError(
                f"source AP {flow.source_ap} is dead and cannot inject"
            )
    if not flows:
        return []
    if radio is None:
        radio = UnitDiskRadio()
    if params is None:
        params = SimParams()
    frozen = frozen_epoch(graph, dead_aps)
    _M_COLUMNAR_FLOWS.inc(len(flows))
    return [run_columnar(frozen, graph, flow, radio, params) for flow in flows]
