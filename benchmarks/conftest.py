"""Shared fixtures for the benchmark suite.

Heavy artefacts (the measurement study, built worlds) are produced once
per session so each bench times its own experiment, not world
construction.

Benches that sweep independent trials run through a shared
:class:`~repro.experiments.TrialRunner`; set ``BENCH_WORKERS`` to fan
them out over processes (results are identical for any worker count —
that invariance is part of what the suite checks).

Benches that emit a JSON perf record wrap :func:`perf_recording` in a
module-scoped ``perf_record`` fixture.
"""

import json
import os
import time

import pytest

from repro.experiments import TrialRunner, build_world
from repro.measurement import run_study
from repro.obs import RunManifest

BENCH_WORKERS = int(os.environ.get("BENCH_WORKERS", "1"))


def perf_recording(bench, env_var, seed=0, **config):
    """Yield a bench's perf record; dump it when the fixture tears down.

    The record starts as ``{"bench": bench, **config}`` and tests add
    their measurements to it.  At teardown it gains the run manifest
    and a timestamp, is printed as ``<NAME>_PERF_RECORD <json>`` (for
    ``env_var`` ``<NAME>_PERF_JSON``) and, when ``env_var`` is set,
    written to the file it names.
    """
    record = {"bench": bench, **config}
    manifest = RunManifest.begin(config=dict(record), seed=seed)
    yield record
    record["manifest"] = manifest.finish().to_dict()
    record["timestamp"] = time.time()
    payload = json.dumps(record, indent=2, sort_keys=True)
    path = os.environ.get(env_var)
    if path:
        with open(path, "w") as fh:
            fh.write(payload + "\n")
    print("\n" + env_var.removesuffix("_JSON") + "_RECORD " + payload)


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
