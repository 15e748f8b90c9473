"""Tests for the multi-seed replication experiment."""

import pytest

from repro.experiments import format_replication, replicate_fig6


class TestReplication:
    def test_empty_seeds_raises(self):
        with pytest.raises(ValueError):
            replicate_fig6("gridport", seeds=())

    def test_single_seed_zero_std(self):
        result = replicate_fig6(
            "gridport", seeds=(0,), reach_pairs=30, delivery_pairs=3
        )
        assert result.seeds == 1
        assert result.reachability_std == 0.0
        assert result.deliverability_std == 0.0

    def test_multi_seed_aggregation(self):
        result = replicate_fig6(
            "gridport", seeds=(0, 1), reach_pairs=30, delivery_pairs=3
        )
        assert result.seeds == 2
        assert 0.9 <= result.reachability_mean <= 1.0
        assert result.reachability_std >= 0.0
        assert 0.0 <= result.deliverability_mean <= 1.0

    def test_fractured_city_replicates_fracture(self):
        """Riverton's fracture is structural, not a seed artifact."""
        result = replicate_fig6(
            "riverton", seeds=(0, 1, 2), reach_pairs=60, delivery_pairs=3
        )
        assert result.reachability_mean < 0.7
        assert result.reachability_std < 0.15

    def test_undefined_seeds_are_skipped(self, monkeypatch):
        """A seed with no simulated pair adds nothing to the mean, and a
        quantity no seed measured prints as ``-``."""
        from repro.experiments import replication
        from repro.experiments.fig6 import Fig6Row

        rows = iter([
            Fig6Row("g", 10, 10, 4, 2, 5.0, 6.0),
            Fig6Row("g", 10, 8, 0, 0, None, None),
        ])
        monkeypatch.setattr(replication, "build_world", lambda name, seed: None)
        monkeypatch.setattr(replication, "run_fig6_city", lambda *a, **k: next(rows))
        result = replicate_fig6("g", seeds=(0, 1))
        assert result.reachability_mean == pytest.approx(0.9)
        assert (result.deliverability_mean, result.deliverability_std) == (0.5, 0.0)
        assert result.overhead_mean == 5.0
        empty = replication.ReplicatedCity("g", 1, None, None, None, None, None)
        row = format_replication([empty]).splitlines()[-1]
        assert [c.strip() for c in row.split("|")] == ["g", "1", "-", "-", "-"]

    def test_format(self):
        result = replicate_fig6("gridport", seeds=(0,), reach_pairs=20, delivery_pairs=2)
        out = format_replication([result])
        assert "replication" in out
        assert "gridport" in out
        assert "±" in out
