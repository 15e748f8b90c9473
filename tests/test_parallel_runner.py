"""TrialRunner: per-trial seeding, ordered results, and trial errors."""

import random

import pytest

from repro.experiments import (
    TrialError,
    TrialRunner,
    WorldSpec,
    build_world,
    delivery_trials,
    sample_building_pairs,
    seed_for,
)
from repro.experiments.scaling import control_load


def _explode_on_negatives(x):
    if x < 0:
        raise ValueError(f"boom on {x}")
    return x * 2


@pytest.fixture(scope="module")
def world():
    return build_world("gridport", seed=0)


@pytest.fixture(scope="module")
def trials(world):
    pairs = sample_building_pairs(world, 12, random.Random(0))
    return delivery_trials(pairs, base_seed=42)


class TestSeeding:
    def test_seed_for_is_stable(self):
        # Pinned values: the whole point is cross-process/platform
        # stability, so a change here is a reproducibility break.
        assert seed_for(0, 0) == seed_for(0, 0)
        assert seed_for(0, 0) != seed_for(0, 1)
        assert seed_for(0, 0) != seed_for(1, 0)
        assert all(0 <= seed_for(7, i) < 2**63 for i in range(100))

    def test_trials_carry_distinct_seeds(self, trials):
        assert len({t.seed for t in trials}) == len(trials)

    def test_delivery_trials_order(self, world):
        pairs = sample_building_pairs(world, 5, random.Random(3))
        built = delivery_trials(pairs, base_seed=9)
        assert [(t.src_building, t.dst_building) for t in built] == pairs


class TestRunnerValidation:
    def test_workers_validation(self):
        with pytest.raises(ValueError):
            TrialRunner(workers=0)
        with pytest.raises(ValueError):
            TrialRunner(workers=2)


class TestGenericMap:
    def test_map_without_spec(self):
        with TrialRunner() as runner:
            rows = runner.map(control_load, [100, 1000, 10_000])
        assert [r.nodes for r in rows] == [100, 1000, 10_000]


class TestCrashingTrials:
    """A trial that raises must surface as TrialError with the failing
    index and the traceback."""

    ITEMS = [0, 1, -7, 3, -9, 5]

    def test_serial_crash_carries_index_and_traceback(self):
        with TrialRunner(workers=1) as runner:
            with pytest.raises(TrialError) as excinfo:
                runner.map(_explode_on_negatives, self.ITEMS)
        err = excinfo.value
        assert err.trial_index == 2
        assert "ValueError" in err.error
        assert "boom on -7" in err.error
        assert "_explode_on_negatives" in err.worker_traceback
        assert "trial 2" in str(err)

    def test_serial_crash_chains_original_exception(self):
        with TrialRunner(workers=1) as runner:
            with pytest.raises(TrialError) as excinfo:
                runner.map(_explode_on_negatives, [-1])
        assert isinstance(excinfo.value.__cause__, ValueError)

    def test_healthy_trials_unaffected(self):
        with TrialRunner() as runner:
            results = runner.map(_explode_on_negatives, [1, 2, 3, 4])
        assert results == [2, 4, 6, 8]


class TestExperimentIntegration:
    def test_world_spec_roundtrip(self):
        spec = WorldSpec("gridport", seed=0)
        rebuilt = spec.build()
        reference = build_world("gridport", seed=0)
        assert [ap.position for ap in rebuilt.graph.aps] == [
            ap.position for ap in reference.graph.aps
        ]
        assert spec == WorldSpec("gridport", seed=0)
        assert hash(spec) == hash(WorldSpec("gridport", seed=0))
