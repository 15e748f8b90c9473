"""Compare two results files of the pipeline benchmark.

``compare.py A.json B.json`` prints one row per (workload, end-to-end
metric): both medians, how much worse B is than A as a share of A, the
bound from BENCHMARK.json and a verdict.  Exit 1 when any row breaches
its bound, when B fails more operations than A, or when a run of B did
not pass its output checks.

A metric whose run-to-run spread (quartile distance over median, on
either side) is wider than its bound is ``unresolved``, not ``ok`` —
unless every reading of B is better than every reading of A.  Give each
side several runs (``run.py --repeat N``) so the spread is known.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC_PATH = Path(__file__).resolve().parents[2] / "BENCHMARK.json"


def _load(path: str) -> dict[str, dict]:
    """``{workload: {"metrics": {name: [values]}, "failed": n, ...}}``."""
    out: dict[str, dict] = {}
    for run in json.loads(Path(path).read_text())["runs"]:
        if run["trace"]:
            continue
        side = out.setdefault(
            run["workload"], {"metrics": {}, "failed": 0, "attempted": 0, "correct": True}
        )
        result = run["result"]
        side["failed"] += result["failed"]
        side["attempted"] += result["attempted"]
        side["correct"] = side["correct"] and result["correct"]
        for name, cell in result["metrics"].items():
            side["metrics"].setdefault(name, []).append(cell["value"])
    return out


def _spread(values: list[float]) -> float | None:
    if len(values) < 2:
        return None
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / abs(median) if median else 0.0


def verdict(a: list[float], b: list[float], better: str, bound: float) -> tuple[str, float]:
    """(verdict, how much worse B's median is, as a share of A's)."""
    med_a, med_b = statistics.median(a), statistics.median(b)
    sign = 1.0 if better == "lower" else -1.0
    worse = sign * (med_b - med_a) / abs(med_a) if med_a else 0.0
    spreads = [s for s in (_spread(a), _spread(b)) if s is not None]
    if spreads and max(spreads) > bound:
        b_all_better = (
            max(b) < min(a) if better == "lower" else min(b) > max(a)
        )
        return ("better" if b_all_better else "unresolved"), worse
    if worse > bound:
        return "REGRESSED", worse
    return "ok", worse


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__)
        return 2
    side_a, side_b = _load(argv[0]), _load(argv[1])
    spec = json.loads(SPEC_PATH.read_text())
    failed = False
    print(f"{'workload':<16}{'metric':<16}{'A':>12}{'B':>12}{'worse by':>10}{'bound':>8}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        a, b = side_a.get(workload), side_b.get(workload)
        if a is None or b is None:
            print(f"{workload:<16}missing on one side")
            failed = True
            continue
        for metric in spec["end_to_end"]:
            name = metric["name"]
            va, vb = a["metrics"][name], b["metrics"][name]
            what, worse = verdict(va, vb, metric["better"], metric["bound"])
            failed = failed or what == "REGRESSED"
            print(
                f"{workload:<16}{name:<16}{statistics.median(va):>12.4f}"
                f"{statistics.median(vb):>12.4f}{100 * worse:>9.1f}%"
                f"{100 * metric['bound']:>7.0f}%  {what} (n={len(va)}/{len(vb)})"
            )
        ratio_a = a["failed"] / a["attempted"]
        ratio_b = b["failed"] / b["attempted"]
        if ratio_b > ratio_a or not b["correct"]:
            failed = True
            print(f"{workload:<16}error ratio {ratio_a:.6f} -> {ratio_b:.6f}, "
                  f"checks passed: {b['correct']}  REGRESSED")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
