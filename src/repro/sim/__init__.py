"""Discrete-event simulation: engine, radio models, broadcast runs."""

from .collisions import CollisionResult, simulate_broadcast_with_collisions
from .traffic import (
    MessageOutcome,
    TrafficMessage,
    TrafficResult,
    poisson_workload,
    simulate_traffic,
    simulate_traffic_batch,
)
from .broadcast import (
    BroadcastResult,
    ConduitPolicy,
    FloodPolicy,
    GossipPolicy,
    RebroadcastPolicy,
    SimParams,
    simulate_broadcast,
    transmission_overhead,
)
from .columnar import (
    FlowSpec,
    FrozenEpoch,
    frozen_epoch,
    simulate_broadcast_batch,
)
from .engine import Environment, Event, Process, SimulationError, Timeout
from .radio import (
    DEFAULT_JITTER_S,
    DEFAULT_TX_DELAY_S,
    FadingDetection,
    LossyRadio,
    Reception,
    UnitDiskRadio,
)

__all__ = [
    "BroadcastResult",
    "CollisionResult",
    "ConduitPolicy",
    "DEFAULT_JITTER_S",
    "DEFAULT_TX_DELAY_S",
    "Environment",
    "Event",
    "FadingDetection",
    "FloodPolicy",
    "FlowSpec",
    "FrozenEpoch",
    "frozen_epoch",
    "GossipPolicy",
    "LossyRadio",
    "MessageOutcome",
    "Process",
    "Reception",
    "RebroadcastPolicy",
    "SimParams",
    "SimulationError",
    "Timeout",
    "TrafficMessage",
    "TrafficResult",
    "UnitDiskRadio",
    "poisson_workload",
    "simulate_broadcast",
    "simulate_broadcast_batch",
    "simulate_broadcast_with_collisions",
    "simulate_traffic",
    "simulate_traffic_batch",
    "transmission_overhead",
]
