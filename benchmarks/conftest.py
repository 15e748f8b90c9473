"""Shared fixtures for the benchmark suite.

Heavy artefacts (the measurement study, built worlds) are produced once
per session so each bench times its own experiment, not world
construction.

Benches that sweep independent trials run through a shared
:class:`~repro.experiments.TrialRunner`; set ``BENCH_WORKERS`` to fan
them out over processes (results are identical for any worker count —
that invariance is part of what the suite checks).
"""

import os

import pytest

from repro.experiments import TrialRunner, build_world
from repro.measurement import run_study

BENCH_WORKERS = int(os.environ.get("BENCH_WORKERS", "1"))


@pytest.fixture(scope="session")
def bench_runner():
    """The session's trial runner (``BENCH_WORKERS`` processes)."""
    with TrialRunner(workers=BENCH_WORKERS) as runner:
        yield runner


@pytest.fixture(scope="session")
def study_datasets(bench_runner):
    """The four §2 survey datasets (runs the full study once)."""
    return run_study(seed=0, runner=bench_runner)


@pytest.fixture(scope="session")
def gridport():
    """A prebuilt dense-downtown world."""
    return build_world("gridport", seed=0)


@pytest.fixture(scope="session")
def riverton():
    """A prebuilt fractured river-city world."""
    return build_world("riverton", seed=0)
