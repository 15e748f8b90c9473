"""Experiment drivers: one per table/figure of the paper plus ablations."""

from .ablations import (
    MembershipComparison,
    SweepPoint,
    compare_membership,
    format_sweep,
    membership_trial,
    sweep_ap_density,
    sweep_conduit_width,
    sweep_weight_exponent,
)
from .artifacts import ARTIFACTS, export_all
from .baselines_exp import SchemeSummary, format_baselines, run_baseline_comparison
from .bridging import BridgingResult, format_bridging, run_bridging
from .calibration import CalibrationResult, GapBin, format_calibration, run_calibration
from .capacity import CapacityPoint, capacity_point, format_capacity, run_capacity_sweep
from .common import (
    METRO_BUILDING_ID_SPACE,
    PAPER_AP_DENSITY,
    PAPER_CONDUIT_WIDTH,
    PAPER_TRANSMISSION_RANGE,
    DeliveryResult,
    World,
    WorldSpec,
    attempt_delivery,
    build_world,
    build_world_from_city,
    sample_building_pairs,
)
from .parallel import (
    DeliveryTrial,
    TrialError,
    TrialRunner,
    delivery_trial,
    delivery_trials,
    seed_for,
)
from .fig1 import Fig1Area, fig1_series, format_fig1, run_fig1
from .fig2 import Fig2Area, common_beyond, format_fig2, run_fig2
from .fig5 import Fig5Result, format_fig5, run_fig5
from .fig6 import Fig6Row, format_fig6, run_fig6, run_fig6_city
from .fig7 import Fig7Result, run_fig7
from .header_stats import HeaderStats, format_header_stats, run_header_stats
from .replication import ReplicatedCity, format_replication, replicate_fig6
from .security_exp import (
    AttackOutcome,
    CompromisePoint,
    format_attacks,
    format_compromise,
    run_attack_comparison,
    run_compromise_sweep,
)
from .scaling import ScalingRow, control_load, format_scaling, run_scaling
from .table1 import Table1Row, format_table1, run_table1

__all__ = [
    "ARTIFACTS",
    "BridgingResult",
    "CalibrationResult",
    "CapacityPoint",
    "GapBin",
    "AttackOutcome",
    "CompromisePoint",
    "DeliveryResult",
    "DeliveryTrial",
    "Fig1Area",
    "Fig2Area",
    "Fig5Result",
    "Fig6Row",
    "Fig7Result",
    "HeaderStats",
    "METRO_BUILDING_ID_SPACE",
    "MembershipComparison",
    "PAPER_AP_DENSITY",
    "PAPER_CONDUIT_WIDTH",
    "PAPER_TRANSMISSION_RANGE",
    "ReplicatedCity",
    "ScalingRow",
    "SchemeSummary",
    "SweepPoint",
    "Table1Row",
    "TrialError",
    "TrialRunner",
    "World",
    "WorldSpec",
    "attempt_delivery",
    "build_world",
    "build_world_from_city",
    "delivery_trial",
    "delivery_trials",
    "seed_for",
    "common_beyond",
    "export_all",
    "compare_membership",
    "fig1_series",
    "format_baselines",
    "format_bridging",
    "format_calibration",
    "format_capacity",
    "format_attacks",
    "format_compromise",
    "format_fig1",
    "format_replication",
    "format_fig2",
    "format_fig5",
    "format_fig6",
    "format_header_stats",
    "format_scaling",
    "format_sweep",
    "format_table1",
    "run_baseline_comparison",
    "run_bridging",
    "run_calibration",
    "run_capacity_sweep",
    "run_attack_comparison",
    "run_compromise_sweep",
    "replicate_fig6",
    "run_fig1",
    "run_fig2",
    "run_fig5",
    "run_fig6",
    "run_fig6_city",
    "run_fig7",
    "control_load",
    "run_header_stats",
    "run_scaling",
    "run_table1",
    "sample_building_pairs",
    "capacity_point",
    "membership_trial",
    "sweep_ap_density",
    "sweep_conduit_width",
    "sweep_weight_exponent",
]
