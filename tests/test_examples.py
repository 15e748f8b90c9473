"""Smoke tests: every shipped example must run cleanly end to end."""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, timeout: int = 240) -> str:
    result = subprocess.run(
        [sys.executable, str(EXAMPLES / name)],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert result.returncode == 0, result.stderr[-2000:]
    return result.stdout


class TestExamples:
    def test_examples_exist(self):
        names = {p.name for p in EXAMPLES.glob("*.py")}
        assert {
            "quickstart.py",
            "disaster_messaging.py",
            "city_survey.py",
            "bridge_planning.py",
            "emergency_services.py",
        } <= names

    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "delivery: ok" in out
        assert "waypoints" in out

    def test_disaster_messaging(self):
        out = run_example("disaster_messaging.py")
        assert "Alice -> Bob: delivered" in out
        assert "Bob reads [Alice]" in out
        assert "resilient send: delivered" in out

    def test_bridge_planning(self):
        out = run_example("bridge_planning.py")
        assert "riverton" in out
        assert "-> 100%" in out

    def test_emergency_services(self):
        out = run_example("emergency_services.py")
        assert "[alert]" in out
        assert "[geocast]" in out
        assert "payer flagged: True" in out

    @pytest.mark.slow
    def test_city_survey(self):
        out = run_example("city_survey.py", timeout=420)
        assert "Table 1" in out
        assert "Figure 2" in out
