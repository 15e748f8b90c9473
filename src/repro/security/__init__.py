"""Compromised-node models and resilient-routing mitigations."""

from .compromise import (
    honest_path_exists,
    random_compromise,
    targeted_compromise,
)
from .resilient import ResilientReport, resilient_send

__all__ = [
    "ResilientReport",
    "honest_path_exists",
    "random_compromise",
    "resilient_send",
    "targeted_compromise",
]
