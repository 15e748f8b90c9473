"""Command-line interface: regenerate any table or figure.

Examples::

    python -m repro table1
    python -m repro fig6 --reach-pairs 200 --delivery-pairs 20
    python -m repro fig7 --city parkside --seed 3
    python -m repro ablation-width
    python -m repro all --quick
"""

from __future__ import annotations

import argparse
import os
import sys

from .experiments import (
    TrialRunner,
    compare_membership,
    export_all,
    format_calibration,
    format_capacity,
    run_calibration,
    run_capacity_sweep,
    format_replication,
    format_scaling,
    replicate_fig6,
    run_scaling,
    format_baselines,
    format_bridging,
    format_compromise,
    format_fig1,
    format_fig2,
    format_fig5,
    format_fig6,
    format_header_stats,
    format_sweep,
    format_table1,
    run_baseline_comparison,
    run_bridging,
    run_compromise_sweep,
    run_fig1,
    run_fig2,
    run_fig5,
    run_fig6,
    run_fig7,
    run_header_stats,
    run_table1,
    sweep_ap_density,
    sweep_conduit_width,
    sweep_weight_exponent,
)
from .city import CITY_PRESETS, METRO_PRESETS
from .measurement import run_study
from .obs import REGISTRY, close_trace, set_trace_path, summarize_trace
from .scenario import (
    ARCHETYPES,
    CongestionSpec,
    check_invariants,
    format_scenario,
    fuzz_specs,
    generate_scenario,
    make_scenario,
    run_scenario,
    scenario_names,
    spec_digest,
)


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=int, default=0, help="master random seed")
    parser.add_argument(
        "--workers",
        type=_bounded(int, 1),
        default=1,
        help=(
            "worker processes for independent trials (results are "
            "identical for any value; 1 = in-process)"
        ),
    )
    parser.add_argument(
        "--trace",
        metavar="OUT.jsonl",
        default=None,
        help=(
            "stream observability span events to a JSONL file "
            "(summarize it afterwards with 'obs show OUT.jsonl')"
        ),
    )


def _bounded(kind: type, low: float, high: float | None = None, *, low_open: bool = False):
    """An argparse ``type`` accepting ``kind`` values from ``low``
    (excluded with ``low_open``) up to ``high`` (included; ``None`` =
    no cap).  NaN is refused."""
    if high is None:
        rule = f"> {low}" if low_open else f">= {low}"
    else:
        rule = f"in {'(' if low_open else '['}{low}, {high}]"

    def parse(text: str):
        try:
            value = kind(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {kind.__name__} value: {text!r}"
            ) from None
        above = value > low if low_open else value >= low
        if not (above and (high is None or value <= high)):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {value}")
        return value

    return parse


def _existing_file(text: str) -> str:
    """An argparse ``type`` refusing paths that are not a regular file."""
    if not os.path.isfile(text):
        raise argparse.ArgumentTypeError(f"not a file: {text!r}")
    return text


#: Every preset ``make_city`` builds, for ``--city`` choices.
_CITY_CHOICES = [*CITY_PRESETS, *METRO_PRESETS]


_SCENARIO_JSON_HELP = (
    "emit the full ScenarioResult as JSON (deterministic except its "
    "'manifest' block: wall/CPU time, RSS, start timestamp)"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="citymesh",
        description="CityMesh reproduction: regenerate the paper's tables and figures",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, help_text in [
        ("table1", "war-driving summary table"),
        ("fig1", "CDFs of MACs per scan and per-MAC spread"),
        ("fig2", "common APs vs measurement-pair distance"),
    ]:
        p = sub.add_parser(name, help=help_text)
        _add_common(p)
        if name == "fig1":
            p.add_argument("--plot", action="store_true", help="ASCII CDF charts")

    p = sub.add_parser("fig5", help="downtown footprints and AP mesh rendering")
    _add_common(p)
    p.add_argument("--blocks", type=int, default=6)

    p = sub.add_parser("fig6", help="reachability / deliverability / overhead per city")
    _add_common(p)
    p.add_argument("--reach-pairs", type=int, default=1000)
    p.add_argument("--delivery-pairs", type=int, default=50)
    p.add_argument("--cities", nargs="*", default=None)
    p.add_argument("--plot", action="store_true", help="ASCII bar charts")

    p = sub.add_parser("fig7", help="render one simulated delivery")
    _add_common(p)
    p.add_argument("--city", default="gridport")

    p = sub.add_parser("header", help="compressed-route header sizes")
    _add_common(p)
    p.add_argument("--pairs", type=int, default=150)

    p = sub.add_parser("ablation-width", help="conduit width sweep")
    _add_common(p)
    p = sub.add_parser("ablation-weights", help="edge-weight exponent sweep")
    _add_common(p)
    p = sub.add_parser("ablation-density", help="AP density sweep")
    _add_common(p)
    p = sub.add_parser("ablation-membership", help="building vs AP-position membership")
    _add_common(p)

    p = sub.add_parser("baselines", help="CityMesh vs flood/gossip/greedy/GPSR/AODV")
    _add_common(p)
    p.add_argument("--city", default="gridport")
    p.add_argument("--pairs", type=int, default=30)

    p = sub.add_parser("security", help="deliverability under compromised APs")
    _add_common(p)
    p.add_argument("--city", default="gridport")

    p = sub.add_parser("bridging", help="island bridging before/after")
    _add_common(p)
    p.add_argument("--cities", nargs="*", default=["riverton", "capitolia"])

    p = sub.add_parser("calibration", help="building-graph predictor precision/recall")
    _add_common(p)
    p.add_argument("--city", default="gridport")

    p = sub.add_parser("capacity", help="delivery rate vs offered load")
    _add_common(p)
    p.add_argument("--city", default="gridport")

    p = sub.add_parser("replicate", help="fig6 across seeds with error bars")
    _add_common(p)
    p.add_argument("--cities", nargs="*", default=["gridport", "riverton"])
    p.add_argument("--num-seeds", type=int, default=5)

    p = sub.add_parser("scaling", help="per-node control traffic vs network size (section 5)")
    _add_common(p)

    p = sub.add_parser(
        "metro", help="metro-scale hierarchical routing: partition + plan stats"
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--preset",
        default="metro-20k",
        choices=[*METRO_PRESETS, *CITY_PRESETS],
        metavar="PRESET",
        help="city preset (metro-20k, metro-100k, or any regular preset)",
    )
    p.add_argument(
        "--routes", type=_bounded(int, 0), default=200, help="random routes to plan"
    )
    p.add_argument(
        "--region-size",
        type=_bounded(int, 1),
        default=None,
        help="target buildings per region (default: library default)",
    )
    p.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    p = sub.add_parser(
        "scenario", help="dynamic disaster timelines with fault injection"
    )
    scen = p.add_subparsers(dest="scenario_command", required=True)
    sp = scen.add_parser("run", help="step a canned scenario and report per epoch")
    _add_common(sp)
    sp.add_argument("name", choices=scenario_names(), help="canned scenario")
    sp.add_argument(
        "--json",
        action="store_true",
        help=_SCENARIO_JSON_HELP,
    )
    scen.add_parser("list", help="list the canned scenarios")
    sp = scen.add_parser(
        "generate",
        help="generate a seeded archetype timeline and step it end to end",
    )
    _add_common(sp)
    sp.add_argument(
        "--archetype",
        choices=ARCHETYPES,
        required=True,
        help="disaster shape to generate",
    )
    sp.add_argument(
        "--city", default="gridport", choices=_CITY_CHOICES, metavar="CITY",
        help="preset city",
    )
    sp.add_argument(
        "--epochs",
        type=_bounded(int, 4),
        default=None,
        help="timeline length, at least 4 (archetype default)",
    )
    sp.add_argument(
        "--flows", type=_bounded(int, 1), default=16, help="static flows per epoch"
    )
    sp.add_argument(
        "--intensity",
        type=_bounded(float, 0, 3, low_open=True),
        default=1.0,
        help="damage/churn/dwell scale, in (0, 3]",
    )
    sp.add_argument(
        "--mobile-flows",
        type=_bounded(int, 0),
        default=0,
        help="walkers whose endpoints follow seeded trajectories",
    )
    sp.add_argument(
        "--congestion-window",
        type=_bounded(float, 0),
        default=None,
        metavar="SECONDS",
        help=(
            "couple flows through the shared air: all flows inject "
            "within this window (smaller = more collisions)"
        ),
    )
    sp.add_argument(
        "--spec-only",
        action="store_true",
        help="print the generated spec JSON without running it",
    )
    sp.add_argument(
        "--json",
        action="store_true",
        help=_SCENARIO_JSON_HELP,
    )
    sp = scen.add_parser(
        "fuzz",
        help=(
            "run seeded random generated timelines, checking driver "
            "invariants and worker-count determinism (nonzero exit on "
            "any violation)"
        ),
    )
    _add_common(sp)
    sp.add_argument("--count", type=_bounded(int, 1), default=5, help="timelines to draw")
    sp.add_argument(
        "--city", default="gridport", choices=_CITY_CHOICES, metavar="CITY",
        help="preset city",
    )

    p = sub.add_parser("obs", help="observability: traces and metric snapshots")
    obs_sub = p.add_subparsers(dest="obs_command", required=True)
    sp = obs_sub.add_parser(
        "show", help="summarize a --trace JSONL file (or dump the registry)"
    )
    sp.add_argument(
        "trace",
        nargs="?",
        type=_existing_file,
        default=None,
        help="JSONL trace to summarize; omitted = live registry snapshot",
    )
    sp.add_argument(
        "--json", action="store_true", help="machine-readable output"
    )

    p = sub.add_parser(
        "serve", help="run the always-on DFN service (postbox/geocast/directory)"
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument(
        "--port", type=_bounded(int, 0, 65535), default=8787, help="0 = ephemeral"
    )
    p.add_argument(
        "--city", default="gridport", choices=_CITY_CHOICES, metavar="CITY",
        help="city preset the service hosts",
    )
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--shards", type=_bounded(int, 1), default=8, help="postbox store shards"
    )
    p.add_argument(
        "--capacity", type=_bounded(int, 1), default=1024, help="messages per postbox"
    )
    p.add_argument(
        "--queue-limit",
        type=_bounded(int, 1),
        default=4096,
        help="per-shard queue depth before 503 backpressure",
    )
    p.add_argument(
        "--workers",
        type=int,
        choices=(1,),
        default=1,
        help="service processes: the service is one process, so only 1 is accepted",
    )

    p = sub.add_parser(
        "loadgen", help="closed-loop load generator replaying a scenario timeline"
    )
    p.add_argument("name", choices=scenario_names(), help="scenario to replay")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--phones", type=int, default=200, help="simulated devices")
    p.add_argument("--connections", type=int, default=32, help="closed-loop workers")
    p.add_argument(
        "--target",
        default=None,
        metavar="HOST:PORT",
        help="a running 'repro serve' to hit over TCP (default: in-process)",
    )
    p.add_argument(
        "--dump-trace",
        default=None,
        metavar="OUT.json",
        help="write the deterministic trace JSON ('-' = stdout) and exit",
    )
    p.add_argument(
        "--dump-responses",
        default=None,
        metavar="OUT.json",
        help=(
            "record every [status, payload] response in replay order "
            "(deterministic only with --connections 1; the CI "
            "byte-identity guard diffs this between transports)"
        ),
    )
    p.add_argument("--json", action="store_true", help="machine-readable report")

    p = sub.add_parser("export", help="write every artefact as CSV/text files")
    _add_common(p)
    p.add_argument("--out", default="results")
    p.add_argument("--quick", action="store_true")

    p = sub.add_parser("all", help="run every experiment")
    _add_common(p)
    p.add_argument("--quick", action="store_true", help="reduced sample sizes")
    return parser


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    args = build_parser().parse_args(argv)
    if args.command == "obs":
        return _run_obs(args)
    if args.command == "metro":
        return _run_metro(args)
    if args.command == "serve":
        return _run_serve(args)
    if args.command == "loadgen":
        return _run_loadgen(args)
    seed = getattr(args, "seed", 0)
    trace = getattr(args, "trace", None)
    if trace:
        set_trace_path(trace)
    try:
        with TrialRunner(workers=getattr(args, "workers", 1)) as runner:
            return _dispatch(args, seed, runner)
    finally:
        if trace:
            close_trace()


def _run_obs(args: argparse.Namespace) -> int:
    """``obs show``: trace summaries and registry snapshots."""
    import json as _json

    if args.trace is None:
        print(_json.dumps(REGISTRY.snapshot(), indent=2, sort_keys=True))
        return 0
    with open(args.trace) as fh:
        summary = summarize_trace(fh)
    if args.json:
        print(_json.dumps(summary, indent=2))
        return 0
    if not summary:
        print(f"{args.trace}: no span events")
        return 0
    print(f"{'span':<28} {'count':>7} {'total_s':>10} {'mean_s':>10} {'max_s':>10}")
    for name, row in summary.items():
        print(
            f"{name:<28} {row['count']:>7} {row['total_s']:>10.4f} "
            f"{row['mean_s']:>10.6f} {row['max_s']:>10.6f}"
        )
    return 0


def _run_metro(args: argparse.Namespace) -> int:
    """``metro``: partition a city, attach the hierarchy, report stats."""
    import json as _json
    import random as _random
    import statistics
    import time as _time

    from .buildgraph import BuildingGraph, NoRouteError, attach_hierarchy
    from .city import make_city

    t0 = _time.perf_counter()
    city = make_city(args.preset, seed=args.seed)
    graph = BuildingGraph(city)
    build_s = _time.perf_counter() - t0
    kwargs = {}
    if args.region_size is not None:
        kwargs["target_region_size"] = args.region_size
    t0 = _time.perf_counter()
    router = attach_hierarchy(graph, seed=args.seed, **kwargs)
    partition_s = _time.perf_counter() - t0
    t0 = _time.perf_counter()
    router.build_overlays()
    overlay_s = _time.perf_counter() - t0
    rng = _random.Random(args.seed)
    ids = list(graph)
    latencies: list[float] = []
    unroutable = 0
    for _ in range(args.routes):
        src, dst = rng.sample(ids, 2)
        t0 = _time.perf_counter()
        try:
            router.plan(src, dst)
        except NoRouteError:
            unroutable += 1
        latencies.append(_time.perf_counter() - t0)
    stats = router.stats()
    out = {
        "preset": args.preset,
        "buildings": len(graph),
        "edges": graph.edge_count(),
        "regions": int(stats["regions"]),
        "borders": int(stats["borders"]),
        "overlay_edges": int(stats["overlay_edges"]),
        "graph_build_s": round(build_s, 4),
        "partition_s": round(partition_s, 4),
        "overlay_build_s": round(overlay_s, 4),
        "routes_planned": len(latencies),
        "unroutable": unroutable,
        "route_p50_ms": round(statistics.median(latencies) * 1e3, 3)
        if latencies
        else None,
        "route_max_ms": round(max(latencies) * 1e3, 3) if latencies else None,
        "overlay_settled": int(stats["overlay_settled"]),
        "route_cache_entries": int(stats["route_cache_entries"]),
        "route_cache_approx_bytes": int(stats["route_cache_approx_bytes"]),
    }
    if args.json:
        print(_json.dumps(out, indent=2, sort_keys=True))
        return 0
    width = max(len(k) for k in out)
    for k, v in out.items():
        print(f"{k:<{width}}  {v}")
    return 0


def _run_serve(args: argparse.Namespace) -> int:
    """``serve``: the always-on service, until SIGINT/SIGTERM."""
    import asyncio as _asyncio

    from .service import build_app, run_service

    app = build_app(
        city_name=args.city,
        seed=args.seed,
        n_shards=args.shards,
        capacity=args.capacity,
        queue_limit=args.queue_limit,
    )

    def ready(server) -> None:
        print(
            f"repro serve: {args.city} (seed {args.seed}) on "
            f"http://{args.host}:{server.port} — {args.shards} shards, "
            f"capacity {args.capacity}/box; Ctrl-C to stop",
            flush=True,
        )

    try:
        _asyncio.run(
            run_service(app, host=args.host, port=args.port, ready=ready)
        )
    except KeyboardInterrupt:
        pass
    return 0


def _run_loadgen(args: argparse.Namespace) -> int:
    """``loadgen``: deterministic trace generation + closed-loop replay."""
    import asyncio as _asyncio
    import json as _json

    from .service import (
        InProcessClient,
        ServiceClient,
        build_app,
        format_report,
        generate_trace,
        run_loadgen,
    )

    spec = make_scenario(args.name, seed=args.seed)
    trace = generate_trace(spec, phones=args.phones)
    if args.dump_trace is not None:
        rendered = trace.to_json(indent=2)
        if args.dump_trace == "-":
            print(rendered)
        else:
            with open(args.dump_trace, "w") as fh:
                fh.write(rendered + "\n")
            print(f"wrote {len(trace.requests)} trace requests to {args.dump_trace}")
        return 0
    capture: list | None = [] if args.dump_responses else None

    async def replay():
        if args.target:
            host, _, port = args.target.rpartition(":")
            return await run_loadgen(
                trace,
                lambda: ServiceClient(host, int(port)),
                connections=args.connections,
                capture=capture,
            )
        app = build_app(city_name=spec.world.city_name, seed=args.seed)
        await app.start()
        try:
            return await run_loadgen(
                trace,
                lambda: InProcessClient(app),
                connections=args.connections,
                capture=capture,
            )
        finally:
            await app.close()

    report = _asyncio.run(replay())
    if capture is not None:
        with open(args.dump_responses, "w") as fh:
            _json.dump(capture, fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
    if args.json:
        print(
            _json.dumps(
                {
                    "scenario": spec.name,
                    "city": spec.world.city_name,
                    "seed": args.seed,
                    "phones": args.phones,
                    "trace_requests": len(trace.requests),
                    "kind_counts": trace.kind_counts(),
                    "report": report.to_dict(),
                },
                indent=2,
                sort_keys=True,
            )
        )
    else:
        print(format_report(report, trace))
    return 0


def _dispatch(args: argparse.Namespace, seed: int, runner: TrialRunner) -> int:
    if args.command in ("table1", "fig1", "fig2"):
        datasets = run_study(seed=seed, runner=runner)
        if args.command == "table1":
            print(format_table1(run_table1(seed=seed, datasets=datasets)))
        elif args.command == "fig1":
            areas = run_fig1(seed=seed, datasets=datasets)
            print(format_fig1(areas))
            if args.plot:
                from .experiments import fig1_series
                from .viz import cdf_chart

                series = fig1_series(areas, points=60)
                print("\nFigure 1a: MACs per measurement")
                print(cdf_chart(
                    {a: s["macs_per_scan"] for a, s in series.items()},
                    x_label="MACs per scan",
                ))
                print("\nFigure 1b: per-MAC location spread")
                print(cdf_chart(
                    {a: s["spread_m"] for a, s in series.items()},
                    x_label="spread (m)",
                ))
        else:
            print(format_fig2(run_fig2(seed=seed, datasets=datasets)))
    elif args.command == "fig5":
        print(format_fig5(run_fig5(seed=seed, blocks=args.blocks)))
    elif args.command == "fig6":
        rows = run_fig6(
            seed=seed,
            cities=args.cities,
            reach_pairs=args.reach_pairs,
            delivery_pairs=args.delivery_pairs,
            workers=args.workers,
        )
        print(format_fig6(rows))
        if args.plot:
            from .viz import ascii_bar_chart

            print("\nreachability:")
            print(ascii_bar_chart([r.city for r in rows],
                                  [r.reachability for r in rows], max_value=1.0))
            print("\ndeliverability given reachability:")
            print(ascii_bar_chart([r.city for r in rows],
                                  [r.deliverability for r in rows], max_value=1.0))
    elif args.command == "fig7":
        print(run_fig7(seed=seed, city_name=args.city).art)
    elif args.command == "header":
        print(format_header_stats(run_header_stats(seed=seed, pairs=args.pairs)))
    elif args.command == "ablation-width":
        print(
            format_sweep(
                sweep_conduit_width(seed=seed, runner=runner),
                "width (m)",
                "Conduit width sweep",
            )
        )
    elif args.command == "ablation-weights":
        print(
            format_sweep(
                sweep_weight_exponent(seed=seed, runner=runner),
                "exponent",
                "Edge-weight exponent sweep",
            )
        )
    elif args.command == "ablation-density":
        print(
            format_sweep(
                sweep_ap_density(seed=seed, runner=runner),
                "m^2 per AP",
                "AP density sweep",
            )
        )
    elif args.command == "ablation-membership":
        c = compare_membership(seed=seed, runner=runner)
        print(
            f"building membership: {c.building_delivered}/{c.attempted} delivered, "
            f"median tx {c.building_median_tx}\n"
            f"AP-position membership: {c.position_delivered}/{c.attempted} delivered, "
            f"median tx {c.position_median_tx}"
        )
    elif args.command == "baselines":
        print(format_baselines(run_baseline_comparison(args.city, seed=seed, pairs=args.pairs)))
    elif args.command == "security":
        print(format_compromise(run_compromise_sweep(args.city, seed=seed)))
    elif args.command == "bridging":
        results = [run_bridging(city, seed=seed) for city in args.cities]
        print(format_bridging(results))
    elif args.command == "calibration":
        print(format_calibration(run_calibration(args.city, seed=seed)))
    elif args.command == "capacity":
        print(format_capacity(run_capacity_sweep(args.city, seed=seed, runner=runner)))
    elif args.command == "replicate":
        results = [
            replicate_fig6(city, seeds=tuple(range(seed, seed + args.num_seeds)))
            for city in args.cities
        ]
        print(format_replication(results))
    elif args.command == "scaling":
        print(format_scaling(run_scaling(runner=runner)))
    elif args.command == "scenario":
        if args.scenario_command == "list":
            for name in scenario_names():
                spec = make_scenario(name)
                print(f"{name:22s} {spec.world.city_name:10s} "
                      f"{spec.epochs} x {spec.epoch_hours:g} h  {spec.description}")
        elif args.scenario_command == "generate":
            import json as _json

            congestion = (
                CongestionSpec(window_s=args.congestion_window)
                if args.congestion_window is not None
                else None
            )
            spec = generate_scenario(
                args.archetype,
                seed,
                city=args.city,
                epochs=args.epochs,
                flows=args.flows,
                intensity=args.intensity,
                mobile_flows=args.mobile_flows,
                congestion=congestion,
            )
            if args.spec_only:
                print(_json.dumps(spec.to_dict(), indent=2, sort_keys=True))
                return 0
            result = run_scenario(spec, runner=runner)
            violations = check_invariants(result, spec)
            if args.json:
                print(result.to_json(indent=2))
            else:
                print(f"spec {spec_digest(spec)}: {spec.description}")
                print(format_scenario(result))
            if violations:
                for v in violations:
                    print(f"INVARIANT VIOLATION: {v}", file=sys.stderr)
                return 1
        elif args.scenario_command == "fuzz":
            failures = 0
            for spec in fuzz_specs(args.count, seed, city=args.city):
                result = run_scenario(spec, runner=runner)
                problems = check_invariants(result, spec)
                replay = run_scenario(spec)  # serial replay: worker gate
                if result.to_json(manifest=False) != replay.to_json(
                    manifest=False
                ):
                    problems.append(
                        "result not byte-identical to a serial replay"
                    )
                tag = "FAIL" if problems else "ok"
                print(
                    f"{tag:4s} {spec.name:28s} {spec_digest(spec)} "
                    f"flows={spec.flows}+{spec.mobile_flows}m "
                    f"cong={'y' if spec.congestion else 'n'} "
                    f"min_rate={result.min_delivery_rate:.2f}"
                )
                for problem in problems:
                    print(f"     {problem}", file=sys.stderr)
                failures += bool(problems)
            if failures:
                print(f"{failures} timeline(s) violated invariants", file=sys.stderr)
                return 1
            print(f"{args.count} generated timelines clean")
        else:
            result = run_scenario(make_scenario(args.name, seed=seed), runner=runner)
            if args.json:
                print(result.to_json(indent=2))
            else:
                print(format_scenario(result))
    elif args.command == "export":
        files = export_all(args.out, seed=seed, quick=args.quick)
        for path in files:
            print(path)
        print(f"wrote {len(files)} files to {args.out}")
    elif args.command == "all":
        quick = args.quick
        datasets = run_study(seed=seed, runner=runner)
        print(format_table1(run_table1(seed=seed, datasets=datasets)), "\n")
        print(format_fig1(run_fig1(seed=seed, datasets=datasets)), "\n")
        print(format_fig2(run_fig2(seed=seed, datasets=datasets)), "\n")
        print(format_fig5(run_fig5(seed=seed)), "\n")
        print(
            format_fig6(
                run_fig6(
                    seed=seed,
                    reach_pairs=100 if quick else 1000,
                    delivery_pairs=15 if quick else 50,
                    workers=args.workers,
                )
            ),
            "\n",
        )
        print(run_fig7(seed=seed).art, "\n")
        print(format_header_stats(run_header_stats(seed=seed, pairs=40 if quick else 150)), "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
