"""Dynamic disaster timelines: fault injection and time-varying routing.

The scenario engine turns the repo's static artifacts (power profiles,
island analysis, bridge planning, broadcast simulation, route caching)
into stepped timelines: grids fail and recover, floods drown
neighbourhoods, APs churn, operators deploy bridges — and per epoch the
engine re-derives the alive mesh, patches the routing map, replans
broken flows, and scores end-to-end delivery.
"""

from .driver import ScenarioDriver, run_scenario
from .events import (
    APChurn,
    Damage,
    DeployBridges,
    GridOutage,
    PowerRestored,
    ScenarioEvent,
)
from .generate import (
    ARCHETYPES,
    check_invariants,
    fuzz_specs,
    generate_scenario,
    spec_digest,
)
from .library import SCENARIOS, make_scenario, scenario_names
from .model import (
    CongestionSpec,
    EpochReport,
    ScenarioResult,
    ScenarioSpec,
    format_scenario,
)

__all__ = [
    "APChurn",
    "ARCHETYPES",
    "CongestionSpec",
    "Damage",
    "DeployBridges",
    "EpochReport",
    "GridOutage",
    "PowerRestored",
    "SCENARIOS",
    "ScenarioDriver",
    "ScenarioEvent",
    "ScenarioResult",
    "ScenarioSpec",
    "check_invariants",
    "format_scenario",
    "fuzz_specs",
    "generate_scenario",
    "make_scenario",
    "run_scenario",
    "scenario_names",
    "spec_digest",
]
