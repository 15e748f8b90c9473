"""Shared fixtures for the benchmark suite.

Heavy artefacts (the measurement study, built worlds) are produced once
per session so each bench times its own experiment, not world
construction.
"""

import pytest

from repro.experiments import build_world
from repro.measurement import run_study


@pytest.fixture(scope="session")
def study_datasets():
    """The four §2 survey datasets (runs the full study once)."""
    return run_study(seed=0)


@pytest.fixture(scope="session")
def gridport():
    """A prebuilt dense-downtown world."""
    return build_world("gridport", seed=0)


@pytest.fixture(scope="session")
def riverton():
    """A prebuilt fractured river-city world."""
    return build_world("riverton", seed=0)
