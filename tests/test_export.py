"""Tests for the artefact export pipeline."""

import hashlib
import json
from pathlib import Path

import pytest

from repro.experiments import export_all


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    out = tmp_path_factory.mktemp("results")
    files = export_all(out, seed=0, quick=True)
    return out, files


class TestExport:
    def test_files_written(self, exported):
        out, files = exported
        assert len(files) >= 15
        for path in files:
            assert path.exists()
            assert path.stat().st_size > 0

    def test_expected_artifacts_present(self, exported):
        out, _ = exported
        names = {p.name for p in out.iterdir()}
        for required in (
            "table1.csv",
            "fig1a_downtown_macs_cdf.csv",
            "fig1b_river_spread_cdf.csv",
            "fig2_downtown.csv",
            "fig5a_footprints.txt",
            "fig5b_mesh.txt",
            "fig6.csv",
            "fig7_simulation.txt",
            "header_stats.csv",
        ):
            assert required in names, required

    def test_csv_headers(self, exported):
        out, _ = exported
        first = (out / "fig6.csv").read_text().splitlines()[0]
        assert first.startswith("city,reachability")
        table1 = (out / "table1.csv").read_text().splitlines()
        assert len(table1) == 6  # header + 4 areas + all

    def test_cdf_series_monotone(self, exported):
        out, _ = exported
        lines = (out / "fig1a_downtown_macs_cdf.csv").read_text().splitlines()[1:]
        fractions = [float(line.split(",")[1]) for line in lines]
        assert all(a <= b + 1e-9 for a, b in zip(fractions, fractions[1:]))
        assert fractions[-1] == pytest.approx(1.0)

    def test_renderings_nonempty(self, exported):
        out, _ = exported
        art = (out / "fig7_simulation.txt").read_text()
        assert "*" in art and "o" in art

    def test_idempotent_rerun(self, exported):
        out, files = exported
        again = export_all(out, seed=0, quick=True)
        assert {p.name for p in again} == {p.name for p in files}


def test_paper_artifacts_match_pins(exported):
    """Every seed-0 quick artefact is byte-identical to its committed
    digest: a routing or kernel refactor must not move Table 1, a
    figure, or the header stats.  After an intended change, regenerate
    ``paper_pins.json`` (blake2b-8 of each file's bytes) and say so.
    Its ``stdout:`` keys pin the rows that export no file
    (``test_artifact_pins.py``)."""
    _, files = exported
    pins = json.loads((Path(__file__).parent / "paper_pins.json").read_text())
    digests = {
        p.name: hashlib.blake2b(p.read_bytes(), digest_size=8).hexdigest()
        for p in files
    }
    assert digests == {k: v for k, v in pins.items() if not k.startswith("stdout:")}
