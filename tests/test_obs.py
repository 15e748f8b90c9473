"""Tests for the observability layer: metrics, spans, manifests (plus
their CLI surfaces)."""

import io
import json

import pytest

from repro.cli import main
from repro.obs import (
    REGISTRY,
    MetricsRegistry,
    RunManifest,
    config_hash,
    repo_git_sha,
    set_trace_sink,
    span,
    summarize_trace,
    trace_enabled,
)


class TestMetricsRegistry:
    def test_counter_inc(self):
        r = MetricsRegistry()
        c = r.counter("x")
        c.inc()
        c.inc(5)
        assert c.value == 6

    def test_gauge_set(self):
        r = MetricsRegistry()
        r.gauge("depth").set(17)
        assert r.gauge("depth").value == 17.0

    def test_timer_aggregates(self):
        r = MetricsRegistry()
        t = r.timer("work")
        for d in (0.2, 0.1, 0.3):
            t.observe(d)
        assert t.count == 3
        assert t.total_s == pytest.approx(0.6)
        assert t.min_s == pytest.approx(0.1)
        assert t.max_s == pytest.approx(0.3)
        assert t.mean_s == pytest.approx(0.2)

    def test_instruments_are_singletons(self):
        r = MetricsRegistry()
        assert r.counter("a") is r.counter("a")
        assert r.timer("t") is r.timer("t")
        assert r.gauge("g") is r.gauge("g")

    def test_snapshot_shape_and_sorting(self):
        r = MetricsRegistry()
        r.counter("z.count").inc(2)
        r.counter("a.count").inc()
        r.timer("b.time").observe(0.5)
        snap = r.snapshot()
        assert list(snap) == ["counters", "gauges", "timers"]
        assert list(snap["counters"]) == ["a.count", "z.count"]
        assert snap["counters"]["z.count"] == 2
        assert snap["timers"]["b.time"]["count"] == 1

    def test_snapshot_empty_timer_has_no_infinity(self):
        r = MetricsRegistry()
        r.timer("never")
        row = r.snapshot()["timers"]["never"]
        assert row["min_s"] == 0.0
        assert row["mean_s"] == 0.0
        json.dumps(r.snapshot())  # must be JSON-clean

    def test_reset_preserves_identities(self):
        r = MetricsRegistry()
        c = r.counter("kept")
        c.inc(9)
        r.reset()
        assert c.value == 0
        assert r.counter("kept") is c
        c.inc()
        assert r.snapshot()["counters"]["kept"] == 1


class TestSpans:
    @pytest.fixture()
    def sink(self):
        buf = io.StringIO()
        set_trace_sink(buf)
        yield buf
        set_trace_sink(None)

    def events(self, buf):
        return [json.loads(line) for line in buf.getvalue().splitlines()]

    def test_span_records_registry_timer(self):
        before = REGISTRY.timer("span.obs-test-region").count
        with span("obs-test-region"):
            pass
        assert REGISTRY.timer("span.obs-test-region").count == before + 1

    def test_no_sink_emits_nothing(self):
        assert not trace_enabled()
        with span("quiet"):
            pass  # must not raise, must not write anywhere

    def test_nesting_parent_and_depth(self, sink):
        assert trace_enabled()
        with span("outer"):
            with span("inner", epoch=3):
                pass
        inner, outer = self.events(sink)
        # Completion order: inner closes first.
        assert inner["name"] == "inner"
        assert inner["parent"] == "outer"
        assert inner["depth"] == 1
        assert inner["epoch"] == 3
        assert outer["name"] == "outer"
        assert outer["parent"] is None
        assert outer["depth"] == 0

    def test_seq_is_total_order(self, sink):
        for _ in range(3):
            with span("tick"):
                pass
        assert [e["seq"] for e in self.events(sink)] == [0, 1, 2]

    def test_durations_nonnegative_and_nested_le_outer(self, sink):
        with span("outer"):
            with span("inner"):
                pass
        inner, outer = self.events(sink)
        assert 0.0 <= inner["dur_s"] <= outer["dur_s"]

    def test_exception_still_emits(self, sink):
        with pytest.raises(RuntimeError):
            with span("doomed"):
                raise RuntimeError("boom")
        (event,) = self.events(sink)
        assert event["name"] == "doomed"

    def test_summarize_trace(self, sink):
        with span("a"):
            with span("b"):
                pass
        with span("b"):
            pass
        summary = summarize_trace(io.StringIO(sink.getvalue()))
        assert summary["b"]["count"] == 2
        assert summary["a"]["count"] == 1
        assert summary["b"]["max_depth"] == 1
        assert summary["a"]["mean_s"] == pytest.approx(
            summary["a"]["total_s"]
        )

    def test_summarize_skips_malformed_lines(self):
        lines = [
            '{"name": "good", "dur_s": 0.5, "depth": 0}',
            "this is not json",
            '{"dur_s": 1.0}',  # no name
            "",
        ]
        summary = summarize_trace(iter(lines))
        assert list(summary) == ["good"]
        assert summary["good"]["total_s"] == pytest.approx(0.5)


class TestRunManifest:
    def test_fields_present(self):
        m = RunManifest.begin(config={"k": 1}, seed=7)
        d = m.finish().to_dict()
        assert set(d) == {
            "git_sha", "config_hash", "seed", "started_utc", "wall_s",
            "cpu_s", "peak_rss_kb", "python", "platform",
        }
        assert d["seed"] == 7
        assert d["wall_s"] >= 0.0
        assert d["cpu_s"] >= 0.0

    def test_git_sha_found_in_this_repo(self):
        sha = repo_git_sha()
        assert sha is not None
        assert len(sha) == 40

    def test_finish_is_idempotent(self):
        m = RunManifest.begin()
        first = m.finish().wall_s
        assert m.finish().wall_s == first

    def test_to_dict_implies_finish(self):
        assert RunManifest.begin().to_dict()["wall_s"] is not None

    def test_config_hash_stable_and_distinct(self):
        assert config_hash({"a": 1, "b": 2}) == config_hash({"b": 2, "a": 1})
        assert config_hash({"a": 1}) != config_hash({"a": 2})

    def test_config_hash_handles_non_json(self):
        class Opaque:
            def __repr__(self):
                return "Opaque()"

        assert config_hash(Opaque()) == config_hash(Opaque())


class TestObsCli:
    def test_obs_show_registry_snapshot(self, capsys):
        REGISTRY.counter("cli.probe").inc()
        assert main(["obs", "show"]) == 0
        snap = json.loads(capsys.readouterr().out)
        assert snap["counters"]["cli.probe"] >= 1

    def test_obs_show_trace_table(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        trace.write_text(
            '{"seq":0,"name":"x","parent":null,"depth":0,'
            '"start_s":0.0,"dur_s":0.25}\n'
        )
        assert main(["obs", "show", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "x" in out
        assert "count" in out

    def test_obs_show_trace_json(self, tmp_path, capsys):
        trace = tmp_path / "t.jsonl"
        trace.write_text(
            '{"seq":0,"name":"x","parent":null,"depth":0,'
            '"start_s":0.0,"dur_s":0.25}\n'
        )
        assert main(["obs", "show", str(trace), "--json"]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["x"]["count"] == 1

    def test_trace_flag_writes_jsonl(self, tmp_path, capsys):
        trace = tmp_path / "run.jsonl"
        assert (
            main(
                ["scenario", "run", "rolling-blackout", "--trace", str(trace)]
            )
            == 0
        )
        capsys.readouterr()
        events = [
            json.loads(line) for line in trace.read_text().splitlines()
        ]
        assert events, "trace file must contain span events"
        names = {e["name"] for e in events}
        assert "scenario.run" in names
        assert "scenario.epoch" in names


class TestInstrumentationWiring:
    """The subsystems actually feed the process registry."""

    def test_buildgraph_metrics(self):
        from repro.buildgraph import BuildingGraph
        from repro.city import make_city

        city = make_city("gridport", seed=0)
        ids = [b.id for b in city.buildings]
        REGISTRY.reset()
        g = BuildingGraph(city)
        g.plan(ids[0], ids[-1])
        snap = REGISTRY.snapshot()
        assert snap["counters"]["buildgraph.builds"] == 1
        assert snap["counters"]["buildgraph.plan_calls"] == 1
        assert snap["timers"]["buildgraph.build_s"]["count"] == 1

    def test_broadcast_metrics(self):
        import random

        from repro.experiments import build_world, sample_building_pairs
        from repro.experiments.common import attempt_delivery

        world = build_world("gridport", seed=0)
        pair = sample_building_pairs(world, 1, random.Random(0))[0]
        REGISTRY.reset()
        attempt_delivery(world, pair[0], pair[1], random.Random(1))
        snap = REGISTRY.snapshot()
        assert snap["counters"]["sim.broadcasts"] >= 1
        assert snap["counters"]["sim.events_processed"] > 0

    def test_scenario_result_embeds_manifest(self):
        from repro.scenario import ScenarioResult, make_scenario, run_scenario

        result = run_scenario(make_scenario("rolling-blackout"))
        assert result.manifest is not None
        assert result.manifest["seed"] is not None
        assert result.manifest["wall_s"] >= 0.0
        parsed = json.loads(result.to_json())
        assert "manifest" in parsed
        assert "manifest" not in json.loads(result.to_json(manifest=False))
        assert ScenarioResult.from_dict(parsed).manifest == result.manifest
