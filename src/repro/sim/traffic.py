"""Shared-air traffic simulation: what load can a DFN carry?

The paper's simulator (and :func:`repro.sim.broadcast.simulate_broadcast`)
treats every in-range reception as successful; §6 lists wireless channel
congestion among the effects a higher-fidelity simulation should add.
This module adds the first-order version: transmissions occupy the air
for a frame time, and a receiver decodes a frame **iff no other
transmission it can hear (including its own) overlaps the frame** — the
classic collision model without capture.

Many messages share that air, so transmissions of different messages
interfere and delivery rate degrades as offered load grows — the
capacity curve.  With one message it is the single-broadcast collision
model, where rebroadcast jitter is what keeps a protocol alive (the
jitter ablation bench quantifies exactly that).
"""

from __future__ import annotations

import random
from bisect import bisect_left, insort
from dataclasses import dataclass, field
from typing import Sequence

from ..mesh import APGraph
from .broadcast import RebroadcastPolicy, SimParams
from .columnar import FlowSpec
from .engine import Environment
from .radio import DEFAULT_TX_DELAY_S


@dataclass(frozen=True)
class TrafficMessage:
    """One offered message.

    APs in ``compromised`` receive (and can deliver) the message but
    silently drop it instead of relaying.
    """

    msg_id: int
    start_s: float
    source_ap: int
    dest_building: int
    policy: RebroadcastPolicy
    compromised: frozenset[int] = frozenset()


@dataclass
class MessageOutcome:
    """Per-message delivery record."""

    msg_id: int
    delivered: bool = False
    delivery_time_s: float | None = None
    transmissions: int = 0


@dataclass
class TrafficResult:
    """Aggregate outcome of a traffic run."""

    outcomes: dict[int, MessageOutcome] = field(default_factory=dict)
    total_transmissions: int = 0
    total_collisions: int = 0
    total_receptions: int = 0

    @property
    def offered(self) -> int:
        return len(self.outcomes)

    @property
    def delivered(self) -> int:
        return sum(1 for o in self.outcomes.values() if o.delivered)

    @property
    def delivery_rate(self) -> float:
        return self.delivered / self.offered if self.offered else 0.0

    @property
    def collision_rate(self) -> float:
        """Fraction of frame arrivals destroyed by collisions."""
        total = self.total_receptions + self.total_collisions
        return self.total_collisions / total if total else 0.0


class _AirLog:
    """Per-AP transmission intervals, kept sorted for overlap checks."""

    def __init__(self) -> None:
        self._intervals: dict[int, list[tuple[float, float]]] = {}

    def add(self, ap_id: int, start: float, end: float) -> None:
        insort(self._intervals.setdefault(ap_id, []), (start, end))

    def overlaps(self, ap_id: int, start: float, end: float, skip: tuple[float, float] | None = None) -> bool:
        intervals = self._intervals.get(ap_id)
        if not intervals:
            return False
        # Find the first interval whose start could matter.
        i = bisect_left(intervals, (start, float("-inf")))
        # One step back is enough only because every frame lasts
        # ``frame_time_s``: sorted by start, the intervals are sorted by
        # end too, so if the nearest earlier one has ended by ``start``
        # every earlier one has.
        if i > 0:
            i -= 1
        for s, e in intervals[i:]:
            if s >= end:
                break
            if e > start and (s, e) != skip:
                return True
        return False


def simulate_traffic(
    graph: APGraph,
    messages: list[TrafficMessage],
    rng: random.Random,
    frame_time_s: float = DEFAULT_TX_DELAY_S,
    params: SimParams | None = None,
    dead_aps: frozenset[int] = frozenset(),
) -> TrafficResult:
    """Run many messages through the shared collision channel.

    Semantics: each message floods like
    :func:`~repro.sim.broadcast.simulate_broadcast` under its own
    policy, but every transmission holds the air for ``frame_time_s``
    and all messages share it — a frame from ``u`` arriving at ``v`` is
    lost when *any* other transmission (of any message) audible at
    ``v``, ``v``'s own included (half-duplex), overlaps it.
    ``dead_aps`` removes APs from the mesh for the whole run (a
    disaster epoch's outage set): a dead AP never transmits, receives,
    or relays.

    Raises:
        ValueError: for a non-positive frame time, duplicate message
            ids, or a dead source AP.
    """
    if frame_time_s <= 0:
        raise ValueError("frame time must be positive")
    if params is None:
        params = SimParams()
    for message in messages:
        if message.source_ap in dead_aps:
            raise ValueError(
                f"message {message.msg_id} sources from dead AP "
                f"{message.source_ap}"
            )
    env = Environment()
    air = _AirLog()
    seen: set[tuple[int, int]] = set()  # (msg_id, ap_id)
    result = TrafficResult()
    for message in messages:
        if message.msg_id in result.outcomes:
            raise ValueError(f"duplicate message id {message.msg_id}")
        result.outcomes[message.msg_id] = MessageOutcome(msg_id=message.msg_id)

    by_id = {m.msg_id: m for m in messages}

    def transmit(sender: tuple[int, int]) -> None:
        ap_id, msg_id = sender
        start = env.now
        end = start + frame_time_s
        air.add(ap_id, start, end)
        outcome = result.outcomes[msg_id]
        outcome.transmissions += 1
        result.total_transmissions += 1
        for v in graph.neighbors(ap_id):
            if v in dead_aps:
                continue
            env.schedule(frame_time_s, receive, (v, ap_id, msg_id, start, end))

    def receive(frame: tuple[int, int, int, float, float]) -> None:
        v, u, msg_id, start, end = frame
        # Half-duplex + interference from any message's transmissions.
        if air.overlaps(v, start, end):
            result.total_collisions += 1
            return
        for w in graph.neighbors(v):
            skip = (start, end) if w == u else None
            if air.overlaps(w, start, end, skip=skip):
                result.total_collisions += 1
                return
        result.total_receptions += 1
        if (msg_id, v) in seen:
            return
        seen.add((msg_id, v))
        message = by_id[msg_id]
        outcome = result.outcomes[msg_id]
        ap = graph.aps[v]
        if ap.building_id == message.dest_building and not outcome.delivered:
            outcome.delivered = True
            outcome.delivery_time_s = env.now - message.start_s
        if v in message.compromised:
            return
        if message.policy.should_rebroadcast(ap):
            delay = rng.uniform(0.0, params.jitter_s) if params.jitter_s > 0 else 0.0
            env.schedule(delay, transmit, (v, msg_id))

    def inject(message: TrafficMessage) -> None:
        seen.add((message.msg_id, message.source_ap))
        outcome = result.outcomes[message.msg_id]
        if graph.aps[message.source_ap].building_id == message.dest_building:
            outcome.delivered = True
            outcome.delivery_time_s = 0.0
        transmit((message.source_ap, message.msg_id))

    for message in messages:
        env.schedule(message.start_s, inject, message)
    env.run(until=params.max_sim_time_s)
    return result


def simulate_traffic_batch(
    graph: APGraph,
    flows: Sequence[FlowSpec],
    start_times: Sequence[float],
    rng: random.Random,
    frame_time_s: float = DEFAULT_TX_DELAY_S,
    params: SimParams | None = None,
    dead_aps: frozenset[int] = frozenset(),
) -> list[MessageOutcome]:
    """Run an epoch's flows through the *shared* collision channel.

    The congestion-aware sibling of
    :func:`~repro.sim.columnar.simulate_broadcast_batch`: the same
    :class:`~repro.sim.columnar.FlowSpec` inputs, but instead of each
    flow broadcasting through a private air, all of the epoch's flows
    contend for the channel.  Each flow becomes one
    :class:`TrafficMessage` (with its ``compromised`` set) injected at
    ``start_times[i]``; the closer together the start times, the more
    the flows collide and the lower the delivery rate — the coupling a
    scenario's congestion stage measures.  ``FlowSpec.rng`` is unused:
    the shared ``rng`` draws every flow's jitter, in event order.

    Returns one :class:`MessageOutcome` per flow, in flow order.

    Raises:
        ValueError: when the start-time list does not match the flows,
            or for the :func:`simulate_traffic` error cases.
    """
    if len(start_times) != len(flows):
        raise ValueError(
            f"{len(flows)} flows but {len(start_times)} start times"
        )
    messages = [
        TrafficMessage(
            msg_id=i,
            start_s=start_times[i],
            source_ap=flow.source_ap,
            dest_building=flow.dest_building,
            policy=flow.policy,
            compromised=flow.compromised,
        )
        for i, flow in enumerate(flows)
    ]
    result = simulate_traffic(
        graph,
        messages,
        rng,
        frame_time_s=frame_time_s,
        params=params,
        dead_aps=dead_aps,
    )
    return [result.outcomes[i] for i in range(len(flows))]


def poisson_workload(
    graph: APGraph,
    building_ids: list[int],
    rate_per_s: float,
    duration_s: float,
    make_policy,
    rng: random.Random,
) -> list[TrafficMessage]:
    """A Poisson arrival workload between random building pairs.

    Args:
        graph: the mesh (sources are drawn from its AP-bearing buildings).
        building_ids: candidate endpoint buildings.
        rate_per_s: mean message arrivals per second.
        duration_s: workload horizon.
        make_policy: callable ``(src_building, dst_building) -> policy``
            (returns None to skip unroutable pairs).
        rng: randomness for arrivals and pair choice.

    Raises:
        ValueError: for non-positive rate/duration or too few buildings.
    """
    if rate_per_s <= 0 or duration_s <= 0:
        raise ValueError("rate and duration must be positive")
    if len(building_ids) < 2:
        raise ValueError("need at least two candidate buildings")
    messages: list[TrafficMessage] = []
    t = 0.0
    msg_id = 0
    while True:
        t += rng.expovariate(rate_per_s)
        if t >= duration_s:
            break
        src, dst = rng.sample(building_ids, 2)
        src_aps = graph.aps_in_building(src)
        if not src_aps:
            continue
        policy = make_policy(src, dst)
        if policy is None:
            continue
        messages.append(
            TrafficMessage(
                msg_id=msg_id,
                start_s=t,
                source_ap=src_aps[0],
                dest_building=dst,
                policy=policy,
            )
        )
        msg_id += 1
    return messages
