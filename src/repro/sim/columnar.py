"""The broadcast kernel: frozen worlds, batched flows, group events.

This module is the one broadcast engine everything but the equivalence
tests runs (:func:`repro.sim.simulate_broadcast` hands its default
``fast=True`` case to :func:`simulate_broadcast_batch` as a one-flow
batch).  The mutable world is **frozen once** into flat numpy arrays
and every flow of an epoch runs against the shared frozen state:

- :func:`frozen_epoch` — int32 CSR adjacency with the dead APs already
  filtered out, cached per ``(graph, dead_aps)`` so repeated flows (and
  repeated epochs with an unchanged dead set) freeze nothing;
- the policy's ``verdict_mask(graph)`` — its per-AP rebroadcast bitmap,
  read with ``getattr`` once per flow (see
  :class:`~repro.sim.broadcast.RebroadcastPolicy`);
- :func:`run_columnar` — the group-event loop for one flow;
- :func:`simulate_broadcast_batch` — the entry point: freeze once,
  then run every flow with its own policy/RNG/destination.

Equivalence contract
--------------------

Results are **bit-for-bit identical** to the reference DES engine
(:func:`repro.sim.broadcast.simulate_broadcast` with ``fast=False``,
kept only as the oracle tests compare against) for the same seeds, and
the shared RNG ends in the same state.  The kernel exploits one
structural fact: all receptions pushed by a single transmission share
one timestamp and a *contiguous* block of sequence numbers, so in the
heap's total ``(time, seq)`` order no other event can interleave with
them.  The whole block therefore becomes ONE heap entry (the audience
as a list of AP ids), and the receive handler walks it in audience
order doing what the reference does per reception: copy counter,
duplicate check, delivery, blackhole, verdict, jitter draw.  RNG draws
stay in reference order: per-neighbour loss draws happen at transmit
time in adjacency order, verdict and jitter draws at reception time in
audience order.

The group body is a plain Python loop over scalars (``bytearray``
flags, a ``bytes`` verdict bitmap), not numpy: an audience averages
about 17 APs, and at that size the per-call overhead of the eight or
so array ops a group used to take cost more than the work they did.

The same loop covers what a frozen bitmap or an inlined radio cannot:

- **lazy verdicts** — a policy without ``verdict_mask`` (gossip, user
  classes) is asked ``should_rebroadcast`` where the loop would read
  the bitmap, so a policy drawing from the simulation RNG interleaves
  with the jitter draws as in the reference;
- **generic radios** — a radio whose type is not exactly
  :class:`UnitDiskRadio`/:class:`LossyRadio` is asked for its
  ``receptions`` (own delays, own loss draws) and each becomes a
  single-receiver group with its own sequence number.

Lifecycle and invalidation: an :class:`~repro.mesh.APGraph` is
immutable after construction (bridge deployments build a *new* graph),
so frozen CSR arrays attached to a graph never go stale.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from heapq import heappop, heappush
from typing import Sequence

import numpy as np

from ..mesh import APGraph
from ..obs import REGISTRY
from .broadcast import (
    BroadcastResult,
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
        indptr = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        indices = indices[keep]
    frozen = FrozenEpoch(n, indptr, indices, dead_mask, dead_aps)
    if len(cache) >= _EPOCH_CACHE_CAP:
        cache.clear()
    cache[dead_aps] = frozen
    return frozen


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
    transmission as a list of AP ids, keyed by the *first* sequence
    number of its contiguous block.  Sequence numbers are unique across
    entries, so tuple comparison never reaches the payload.
    """
    n = frozen.n
    indptr = frozen.indptr
    indices = frozen.indices
    threshold = params.suppression_threshold
    jitter = params.jitter_s
    max_time = params.max_sim_time_s

    rng = flow.rng
    # No mask: the policy is asked per fresh receiver (lazy verdicts).
    verdict_mask = getattr(flow.policy, "verdict_mask", None)
    verdicts = verdict_mask(graph).tobytes() if verdict_mask is not None else None
    should_rebroadcast = flow.policy.should_rebroadcast
    aps = graph.aps
    radio_kind = type(radio)
    lossy = radio_kind is LossyRadio
    generic_radio = not (lossy or radio_kind is UnitDiskRadio)
    tx_delay = 0.0 if generic_radio else radio.tx_delay_s
    loss_p = radio.loss_probability if lossy else 0.0

    seen = bytearray(n)
    is_dest = bytearray(n)
    for v in graph.aps_in_building(flow.dest_building):
        is_dest[v] = 1
    blackholes = bytearray(n)
    for v in flow.compromised:
        blackholes[v] = 1
    copies = [0] * n if threshold is not None else None

    transmissions = receptions = duplicates = suppressed = 0
    transmitters: set[int] = set()
    source_ap = flow.source_ap
    seen[source_ap] = 1
    delivered = bool(is_dest[source_ap])
    delivery_time: float | None = 0.0 if delivered else None

    rng_random = rng.random
    rng_uniform = rng.uniform
    push = heappush
    pop = heappop
    # The source's transmission is the first event; giving it seq 0
    # shifts every later key by one, which keeps their relative order.
    heap: list[tuple[float, int, int, object]] = [(0.0, 0, _TRANSMIT, source_ap)]
    seq = 1
    while heap:
        time, _, kind, payload = pop(heap)
        if time > max_time:
            break
        if kind == _TRANSMIT:
            if copies is not None and copies[payload] >= threshold:
                suppressed += 1
                continue
            transmissions += 1
            transmitters.add(payload)
            audience = indices[indptr[payload] : indptr[payload + 1]].tolist()
            if generic_radio:
                # The radio owns delays and loss draws, so its receptions
                # need not share a timestamp: one group per reception.
                for rec in radio.receptions(audience, rng):
                    push(heap, (time + rec.delay_s, seq, _RECEIVE, [rec.receiver_id]))
                    seq += 1
                continue
            if lossy:  # one draw per alive neighbour, adjacency order
                audience = [u for u in audience if rng_random() >= loss_p]
            if audience:
                push(heap, (time + tx_delay, seq, _RECEIVE, audience))
                seq += len(audience)
            continue
        receptions += len(payload)
        for v in payload:
            if copies is not None:
                copies[v] += 1
            if seen[v]:
                duplicates += 1
                continue
            seen[v] = 1
            if is_dest[v] and not delivered:
                delivered = True
                delivery_time = time
            if blackholes[v]:
                continue
            if verdicts[v] if verdicts is not None else should_rebroadcast(aps[v]):
                # The jitter draw follows its verdict, the reference's
                # order when a lazy policy shares the simulation RNG.
                delay = rng_uniform(0.0, jitter) if jitter > 0.0 else 0.0
                push(heap, (time + delay, seq, _TRANSMIT, v))
                seq += 1

    result = BroadcastResult(
        delivered=delivered,
        delivery_time_s=delivery_time,
        transmissions=transmissions,
        receptions=receptions,
        duplicates=duplicates,
        suppressed=suppressed,
        transmitters=transmitters,
        heard=set(np.flatnonzero(np.frombuffer(seen, np.uint8)).tolist()),
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
