"""The ``scenario_sweep`` workload: scoring generated disaster timelines.

Each round generates its specs from the seed and runs every one
through ``ScenarioDriver(spec).run()`` with a serial ``TrialRunner``;
an operation is one epoch, timed by the driver's own ``epoch_wall_s``.
No server: this is the planner's use of the library, not the phone's.
"""

from __future__ import annotations

import io
import json
import time
from pathlib import Path

from repro.experiments import TrialRunner
from repro.obs import config_hash, set_trace_sink
from repro.scenario import ScenarioDriver, check_invariants

import workloads
from harness import Block, MeasuredClock, Tracer, p50_ms, ratio

#: Congested epochs a traced run scores (three timelines).
_CONGESTED_EPOCHS = 24
_PHASES = ("events", "patch", "replan", "islands", "simulate")


def _result_digest(result) -> str:
    return config_hash(result.to_json(manifest=False))


class SweepWorkload:
    def __init__(self, seed: int, sizes: workloads.Sizes, root: Path, tracer: Tracer):
        self.seed = seed
        self.sizes = sizes
        self.tracer = tracer
        self.server = None
        self.exhausted = False
        self.layer = {"scenario.generate_s": 0.0, "scenario.driver_build_s": 0.0}
        self.failures: list[str] = []
        self.attempted = 0
        self.round0: dict = {}
        self.rate_sum = 0.0
        self.replans = 0
        self.free_walls: list[float] = []
        self.congested_walls: list[float] = []
        self._span_timeline = -1  # op id of replayed spans: one per timeline
        self._runner: TrialRunner | None = None

    async def setup(self) -> None:
        self._runner = TrialRunner(workers=1)

    def dump_inputs(self) -> list:
        return [s.to_dict() for s in workloads.scenario_sweep_round(self.seed, 0, self.sizes)]

    async def warmup(self) -> None:
        spec = workloads.scenario_sweep_round(self.seed, workloads.WARMUP_INDEX, self.sizes)[0]
        with ScenarioDriver(spec, runner=self._runner) as driver:
            driver.run()

    async def close(self) -> None:
        if self._runner is not None:
            self._runner.close()
            self._runner = None

    async def finish(self) -> None:
        return None

    def delivery_ratio(self) -> float:
        """Mean per-epoch delivery rate over every timeline stepped."""
        return ratio(self.rate_sum, self.attempted)

    # ------------------------------------------------------------------
    async def round(self, index: int, clock: MeasuredClock, traced: bool) -> Block:
        t0 = time.perf_counter()
        specs = workloads.scenario_sweep_round(self.seed, index, self.sizes)
        self.layer["scenario.generate_s"] += time.perf_counter() - t0
        sink = io.StringIO() if traced else None
        base = time.perf_counter()
        if traced:
            set_trace_sink(sink)
        walls: list[float] = []
        timed_s = 0.0
        digests = []
        try:
            for spec in specs:
                result, epoch_walls, run_s = self._score(spec, clock)
                timed_s += run_s
                walls.extend(epoch_walls)
                self.rate_sum += sum(r.delivery_rate for r in result.epochs)
                self.replans += result.total_replans
                digests.append(_result_digest(result))
        finally:
            if traced:
                set_trace_sink(None)
        if sink is not None:
            self._keep_spans(sink.getvalue(), base)
        if sink is not None and len(self.congested_walls) < _CONGESTED_EPOCHS:
            # The shared-air variant is scored beside the first traced
            # rounds only and kept out of the block: its cost swings
            # ~20 % from one drawn world to the next, too much for an
            # end-to-end number at this run length (README, "Left out").
            congested = workloads.scenario_sweep_congested(self.seed, index, self.sizes)
            _, epoch_walls, _ = self._score(congested, MeasuredClock())
            self.congested_walls.extend(epoch_walls)
        self.free_walls.extend(walls)
        self.attempted += len(walls)
        if index == 0:
            # Determinism, whatever the seed: the first timeline again.
            again, _, _ = self._score(specs[0], MeasuredClock())
            if _result_digest(again) != digests[0]:
                self.failures.append(f"{specs[0].name}: two runs, two result digests")
            self.round0 = {
                "inputs": config_hash([s.to_dict() for s in specs]),
                "results": config_hash(digests),
            }
        return Block(ops=len(walls), done=len(walls), timed_s=timed_s,
                     latencies=walls, traced=traced)

    def _score(self, spec, clock: MeasuredClock):
        """One timeline through the driver: (result, epoch walls, run wall)."""
        t0 = time.perf_counter()
        driver = ScenarioDriver(spec, runner=self._runner)
        self.layer["scenario.driver_build_s"] += time.perf_counter() - t0
        with driver:
            clock.start()
            try:
                result = driver.run()
            finally:
                run_s = clock.stop()
            epoch_walls = list(driver.epoch_wall_s)
        for violation in check_invariants(result, spec):
            self.failures.append(f"{spec.name}: {violation}")
        return result, epoch_walls, run_s

    def _keep_spans(self, jsonl: str, base: float) -> None:
        """Re-home the driver's own ``scenario.*`` span events in the tracer."""
        events = [json.loads(line) for line in jsonl.splitlines() if line]
        events.sort(key=lambda e: (e["start_s"], e["depth"]))
        last_at_depth: dict[int, int] = {}
        for e in events:
            if e["name"] == "scenario.run":
                self._span_timeline += 1
            start = base + e["start_s"]
            attrs = {"epoch": e["epoch"]} if "epoch" in e else None
            last_at_depth[e["depth"]] = self.tracer.add(
                e["name"], start, start + e["dur_s"],
                parent=last_at_depth.get(e["depth"] - 1, -1),
                op=self._span_timeline, attrs=attrs,
            )

    # ------------------------------------------------------------------
    async def per_layer(self) -> dict[str, float]:
        t = self.tracer
        epoch_s = sum(t.durations("scenario.epoch"))
        out = dict(self.layer)
        for phase in _PHASES:
            out[f"scenario.{phase}_share"] = ratio(
                sum(t.durations(f"scenario.{phase}")), epoch_s
            )
        out.update({
            "scenario.free_epoch_p50_ms": p50_ms(self.free_walls),
            "scenario.congested_epoch_p50_ms": p50_ms(self.congested_walls),
            "scenario.replans_per_epoch": ratio(self.replans, self.attempted),
            "mesh.islands_p50_ms": p50_ms(t.durations("scenario.islands")),
        })
        return out
