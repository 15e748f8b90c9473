"""Tests for the command-line interface (reduced scales)."""

import json
import random

import pytest

from repro.buildgraph import BuildingGraph, NoRouteError
from repro.city import make_city
from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["frobnicate"])

    def test_fig6_args(self):
        args = build_parser().parse_args(
            ["fig6", "--reach-pairs", "10", "--delivery-pairs", "2", "--cities", "gridport"]
        )
        assert args.reach_pairs == 10
        assert args.cities == ["gridport"]

    def test_seed_everywhere(self):
        args = build_parser().parse_args(["fig5", "--seed", "9"])
        assert args.seed == 9


class TestCommands:
    def test_fig5(self, capsys):
        assert main(["fig5", "--blocks", "3"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out
        assert "#" in out

    def test_fig6_small(self, capsys):
        code = main(
            ["fig6", "--reach-pairs", "20", "--delivery-pairs", "3",
             "--cities", "gridport"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Figure 6" in out
        assert "gridport" in out

    def test_fig7(self, capsys):
        assert main(["fig7", "--city", "gridport"]) == 0
        out = capsys.readouterr().out
        assert "delivered" in out

    def test_header(self, capsys):
        assert main(["header", "--pairs", "10"]) == 0
        assert "header sizes" in capsys.readouterr().out

    def test_bridging(self, capsys):
        assert main(["bridging", "--cities", "riverton"]) == 0
        out = capsys.readouterr().out
        assert "riverton" in out
        assert "bridging" in out

    def test_baselines(self, capsys):
        assert main(["baselines", "--pairs", "4"]) == 0
        out = capsys.readouterr().out
        assert "citymesh" in out
        assert "flood" in out


class TestMetro:
    @pytest.mark.parametrize(
        "argv",
        [
            ["--preset", "grid-downtown"],
            ["--region-size", "0"],
            ["--routes", "-3"],
        ],
    )
    def test_bad_input_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["metro", *argv])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1].startswith("citymesh metro: error: argument")

    def test_json_report_matches_the_flat_planner(self, capsys):
        argv = ["metro", "--preset", "capitolia", "--routes", "20",
                "--region-size", "60", "--json"]
        assert main(argv) == 0
        out = json.loads(capsys.readouterr().out)
        assert out["routes_planned"] == 20
        # The same seeded pairs the command draws, on the flat planner.
        graph = BuildingGraph(make_city("capitolia", seed=0))
        rng = random.Random(0)
        ids = list(graph)
        failures = 0
        for _ in range(20):
            src, dst = rng.sample(ids, 2)
            try:
                graph.plan(src, dst)
            except NoRouteError:
                failures += 1
        assert failures > 0
        assert out["unroutable"] == failures


class TestBadInput:
    """Malformed values are refused by the parser: exit 2 and one
    ``error: argument`` line, before any city is built or server bound."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["scenario", "generate", "--archetype", "flood", "--city", "nowhere"],
            ["scenario", "generate", "--archetype", "flood", "--intensity", "0"],
            ["scenario", "generate", "--archetype", "flood", "--intensity", "3.5"],
            ["scenario", "generate", "--archetype", "flood", "--intensity", "nan"],
            ["scenario", "generate", "--archetype", "flood", "--flows", "-2"],
            ["scenario", "generate", "--archetype", "flood", "--epochs", "0"],
            ["scenario", "generate", "--archetype", "flood", "--mobile-flows", "-1"],
            ["scenario", "generate", "--archetype", "flood", "--congestion-window", "-1"],
            ["scenario", "run", "river-flood", "--workers", "0"],
            ["scenario", "fuzz", "--count", "0"],
            ["serve", "--city", "nowhere"],
            ["serve", "--shards", "0"],
            ["serve", "--workers", "0"],
            ["serve", "--workers", "2"],
            ["serve", "--capacity", "0"],
            ["serve", "--queue-limit", "0"],
            ["serve", "--port", "70000"],
            ["fig6", "--workers", "two"],
            ["obs", "show", "no-such-dir/missing.jsonl"],
            ["obs", "show", "."],
        ],
    )
    def test_bad_input_is_a_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        command = " ".join(a for a in argv[:2] if not a.startswith("-"))
        assert err.splitlines()[-1].startswith(f"citymesh {command}: error: argument")

    def test_removed_loadgen_procs_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["loadgen", "river-flood", "--procs", "2"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines()[-1] == (
            "citymesh: error: unrecognized arguments: --procs 2"
        )

    def test_bounds_are_inclusive(self):
        args = build_parser().parse_args(
            ["scenario", "generate", "--archetype", "flood", "--intensity", "3",
             "--epochs", "4", "--congestion-window", "0", "--city", "metro-20k"]
        )
        assert (args.intensity, args.epochs, args.congestion_window) == (3.0, 4, 0.0)
        assert args.city == "metro-20k"
