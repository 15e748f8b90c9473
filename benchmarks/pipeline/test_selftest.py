"""Self-test of the pipeline benchmark (``pytest benchmarks/pipeline``).

Runs ``run.py --quick`` — every workload, untraced then traced, at about
a twentieth of the op counts — and asserts that every metric BENCHMARK.json
names is emitted with a finite value and that the output checks pass.
"""

import json
import math
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parents[1] / "BENCHMARK.json").read_text())


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(HERE / "run.py"), *args],
        capture_output=True, text=True, timeout=300,
    )


def test_quick_run_emits_every_metric(tmp_path):
    out = tmp_path / "results.json"
    done = _run("--quick", "--out", str(out), "--trace-out", str(tmp_path / "spans.jsonl"))
    assert done.returncode == 0, done.stdout + done.stderr
    runs = json.loads(out.read_text())["runs"]
    assert {(r["workload"], r["trace"]) for r in runs} == {
        (w["name"], t) for w in SPEC["workloads"] for t in (0, 1)
    }
    for run in runs:
        section = SPEC["per_layer" if run["trace"] else "end_to_end"]
        result = run["result"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        assert set(result["metrics"]) == {m["name"] for m in section}
        for entry in section:
            cell = result["metrics"][entry["name"]]
            assert cell["unit"] == entry["unit"]
            assert math.isfinite(cell["value"]), entry["name"]
            if not run["trace"]:
                assert cell["value"] > 0, entry["name"]
    spans = (tmp_path / "spans.jsonl").read_text().splitlines()
    assert {json.loads(line)["workload"] for line in spans} == {
        w["name"] for w in SPEC["workloads"]
    }


def test_workload_generation_is_byte_identical(tmp_path):
    for name in (w["name"] for w in SPEC["workloads"]):
        first, second = tmp_path / f"{name}-1.json", tmp_path / f"{name}-2.json"
        for path in (first, second):
            done = _run("--quick", "--dump-workload", name, "--seed", "5", "--out", str(path))
            assert done.returncode == 0, done.stderr
        assert first.read_bytes() == second.read_bytes()
