"""The pipeline benchmark: one command, every metric, outputs checked.

Two ways in:

``run.py --workload W --seed S --seconds T --trace 0|1``
    one run; the last line of stdout is the result object the
    benchmark contract asks for (end-to-end metrics untraced,
    per-layer metrics traced).

``run.py [--workload W] [--seed S] [--repeat N] [--out F] [--trace-out F]``
    every workload untraced (N times) then traced, each in a fresh
    process through the first form; prints every metric by name with
    its unit and writes results JSON and span JSONL files.

See README.md for the metrics, the workloads and what is left out.
"""

from __future__ import annotations

import time

_PROCESS_T0 = time.perf_counter()

import argparse  # noqa: E402
import asyncio  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC_PATH = ROOT / "BENCHMARK.json"
PINS_PATH = HERE / "pins.json"
OUT_DIR = HERE / "out"

DEFAULT_SEED = 0
SETUP_REPS = 3
QUICK_SECONDS = 0.25
#: The tail percentile each workload can support with >= 10 samples
#: beyond it in a run of the length BENCHMARK.json fixes, and whether a
#: single round already holds that many (then: the median round's tail).
TAIL_Q = {"flood_city": 0.95, "metro_far": 0.90, "postbox_rush": 0.95, "scenario_sweep": 0.95}
TAIL_PER_BLOCK = {"postbox_rush"}


def _fail(message: str, code: int = 2):
    print(f"pipeline benchmark: {message}", file=sys.stderr)
    raise SystemExit(code)


if not (ROOT / "src" / "repro").is_dir() or not SPEC_PATH.is_file():
    _fail(f"no program to measure: {ROOT}/src/repro or BENCHMARK.json is missing")
sys.path.insert(0, str(ROOT / "src"))

import harness  # noqa: E402
import server  # noqa: E402
import workloads  # noqa: E402
from messages import MessageWorkload  # noqa: E402
from rush import RushWorkload  # noqa: E402
from sweep import SweepWorkload  # noqa: E402

from repro.obs import REGISTRY, config_hash  # noqa: E402

_IMPORT_S = time.perf_counter() - _PROCESS_T0


def load_spec() -> dict:
    return json.loads(SPEC_PATH.read_text())


def make_workload(name: str, seed: int, sizes: workloads.Sizes, tracer: harness.Tracer):
    if name in ("flood_city", "metro_far"):
        return MessageWorkload(name, seed, sizes, ROOT, tracer)
    if name == "postbox_rush":
        return RushWorkload(seed, sizes, ROOT, tracer)
    if name == "scenario_sweep":
        return SweepWorkload(seed, sizes, ROOT, tracer)
    _fail(f"unknown workload {name!r}; known: {', '.join(workloads.NAMES)}")


# ----------------------------------------------------------------------
# One run
# ----------------------------------------------------------------------
async def run_once(name: str, seed: int, seconds: float, trace: bool,
                   quick: bool, trace_out: str | None) -> tuple[dict, dict]:
    """Set up, measure for ``seconds``, check; returns (result, detail)."""
    sizes = workloads.QUICK if quick else workloads.FULL
    tracer = harness.Tracer()
    reps = 1 if quick else SETUP_REPS
    setup_reps: list[float] = []
    wl = None
    try:
        for rep in range(reps):
            if wl is not None:
                await wl.close()
                wl = None
                gc.collect()
            t0 = time.perf_counter()
            wl = make_workload(name, seed, sizes, tracer)
            await wl.setup()
            await wl.warmup()
            setup_reps.append(time.perf_counter() - t0)
        setup_s = _IMPORT_S + statistics.median(setup_reps)
        gc.collect()
        gc.freeze()

        has_server = wl.server is not None
        clock = harness.MeasuredClock(wl.server.cpu_s if has_server else None)
        counters0 = REGISTRY.snapshot()["counters"]
        stats0 = await wl.server.stats(wl.stats_client) if has_server else None
        blocks: list[harness.Block] = []
        while True:
            index = len(blocks)
            blocks.append(await wl.round(index, clock, traced=trace and index % 2 == 0))
            if wl.exhausted:
                break
            # Whole rounds only: stop where the total lands nearest to
            # ``seconds``; a traced run needs a plain round to compare.
            if clock.total_s + 0.5 * clock.total_s / len(blocks) >= seconds and (
                not trace or len(blocks) >= 2
            ):
                break
        stats1 = await wl.server.stats(wl.stats_client) if has_server else None
        await wl.finish()

        failures = list(wl.failures)
        failures += check_pins(name, seed, quick, wl.round0)
        plain = [b for b in blocks if not b.traced]
        errors = sum(b.errors for b in blocks)
        attempted = sum(b.ops for b in blocks)
        pooled = [lat for b in plain for lat in b.latencies]
        tail, beyond = harness.tail_ms(plain, TAIL_Q[name], name in TAIL_PER_BLOCK)
        server_rss = harness.proc_peak_rss_mb(wl.server.pid) if has_server else 0.0
        end_to_end = {
            "setup_s": setup_s,
            "rss_peak_mb": harness.self_peak_rss_mb() + server_rss,
            "delivery_ratio": wl.delivery_ratio(),
            "op_p50_ms": harness.p50_ms(pooled),
            "op_tail_ms": tail,
            "ops_per_s": harness.median_rate(plain),
        }
        detail = {
            "workload": name,
            "seed": seed,
            "trace": int(trace),
            "seconds_measured": clock.total_s,
            "rounds": len(blocks),
            "samples": len(pooled),
            "tail_percentile": TAIL_Q[name],
            "samples_beyond_tail": beyond,
            "setup_reps_s": setup_reps,
            "import_s": _IMPORT_S,
            "round0": wl.round0,
            "failures": failures[:20],
            "trace_exhausted": wl.exhausted,
        }
        for extra in ("outcomes", "causes", "reference_checked", "confirm_refused", "audited"):
            if hasattr(wl, extra):
                detail[extra] = getattr(wl, extra)

        if trace:
            values = await per_layer(wl, clock, blocks, counters0, stats0, stats1)
            section = "per_layer"
            detail["end_to_end_of_plain_rounds"] = end_to_end
            if trace_out:
                tracer.write_jsonl(trace_out, name)
                detail["spans"] = len(tracer.rows)
        else:
            values = end_to_end
            section = "end_to_end"

        metrics = {}
        for entry in load_spec()[section]:
            value = float(values.get(entry["name"], 0.0))
            if not math.isfinite(value):
                failures.append(f"metric {entry['name']} is not finite")
                value = 0.0
            metrics[entry["name"]] = {"value": value, "unit": entry["unit"]}
        result = {
            "correct": not failures and errors == 0,
            "attempted": attempted,
            "failed": errors,
            "metrics": metrics,
        }
        return result, detail
    finally:
        if wl is not None:
            await wl.close()


async def per_layer(wl, clock: harness.MeasuredClock, blocks: list[harness.Block],
                    counters0: dict, stats0: dict | None,
                    stats1: dict | None) -> dict[str, float]:
    """The workload's own layer table plus what every workload shares."""
    layer = await wl.per_layer()
    counters1 = REGISTRY.snapshot()["counters"]
    for short, full in (("columnar_flows", "sim.columnar.flows"),
                        ("scalar_fallbacks", "sim.columnar.scalar_fallbacks")):
        layer[f"sim.{short}"] = counters1.get(full, 0) - counters0.get(full, 0)
    if wl.server is not None:
        layer.update(server.handler_us(stats0, stats1))
        layer["service.server_cpu_share"] = harness.ratio(clock.server_cpu_s, clock.total_s)
        layer["service.server_rss_mb"] = harness.proc_peak_rss_mb(wl.server.pid)
    # Each traced round against the plain round right after it, then the
    # median pair: the host drifts by tens of percent within a minute,
    # so only neighbours in time are comparable.
    pairs = [
        harness.ratio(harness.p50_ms(t.latencies) - harness.p50_ms(p.latencies),
                      harness.p50_ms(p.latencies))
        for t, p in zip(blocks[0::2], blocks[1::2])
    ]
    layer["harness.trace_overhead_pct"] = 100.0 * statistics.median(pairs) if pairs else 0.0
    layer["harness.client_cpu_share"] = harness.ratio(clock.cpu_s, clock.total_s)
    layer["harness.error_ratio"] = harness.ratio(
        sum(b.errors for b in blocks), sum(b.ops for b in blocks))
    return layer


def check_pins(name: str, seed: int, quick: bool, round0: dict) -> list[str]:
    """Round 0 of the pinned seed must reproduce its recorded digests."""
    pins = json.loads(PINS_PATH.read_text())
    if quick or seed != pins["seed"]:
        return []
    return [
        f"pinned {key} of {name} is {want}, this run produced {round0.get(key)}"
        for key, want in pins["workloads"].get(name, {}).items()
        if round0.get(key) != want
    ]


# ----------------------------------------------------------------------
# Workload dump
# ----------------------------------------------------------------------
def dump_workload(name: str, seed: int, quick: bool, out: str | None) -> int:
    """Write round 0's generated inputs and their blake2b."""
    sizes = workloads.QUICK if quick else workloads.FULL
    wl = make_workload(name, seed, sizes, harness.Tracer())
    inputs = wl.dump_inputs()
    payload = json.dumps(
        {"workload": name, "seed": seed, "round": 0,
         "digest": config_hash(inputs), "inputs": inputs},
        sort_keys=True,
    )
    path = out or str(OUT_DIR / f"workload-{name}-{seed}.json")
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    Path(path).write_text(payload + "\n")
    print(f"{name} seed {seed}: inputs digest {config_hash(inputs)} -> {path}")
    return 0


# ----------------------------------------------------------------------
# Full run: every workload, untraced then traced, a process each
# ----------------------------------------------------------------------
def _child(name: str, seed: int, seconds: float, trace: int, quick: bool,
           trace_out: str | None) -> tuple[dict, dict]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    if quick:
        cmd.append("--quick")
    if trace_out:
        cmd += ["--trace-out", trace_out]
    done = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=900)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        _fail(f"{name} (trace {trace}) exited {done.returncode} without a result", 1)
    detail = next(
        (json.loads(line[7:]) for line in lines if line.startswith("DETAIL ")), {}
    )
    return json.loads(lines[-1]), detail


def _seconds(args: argparse.Namespace) -> float:
    if args.seconds is not None:
        return args.seconds
    return QUICK_SECONDS if args.quick else float(load_spec()["run_seconds"])


def full_run(args: argparse.Namespace) -> int:
    seconds = _seconds(args)
    names = [args.workload] if args.workload else list(workloads.NAMES)
    out_path = Path(args.out) if args.out else OUT_DIR / "results.json"
    spans_path = Path(args.trace_out) if args.trace_out else OUT_DIR / "spans.jsonl"
    for path in (out_path, spans_path):
        path.parent.mkdir(parents=True, exist_ok=True)
    host = harness.host_record()
    print(f"host: {host['usable_cpus']} usable CPUs ({host['cpu_model']}), "
          f"python {host['python']}, numpy {host['numpy']}, all traffic over "
          f"{host['network']}; git {host['manifest']['git_sha']}")
    runs = []
    ok = True
    spans_path.write_text("")
    for name in names:
        for trace in [0] * args.repeat + [1]:
            part = str(spans_path) + f".{name}" if trace else None
            result, detail = _child(name, args.seed, seconds, trace, args.quick, part)
            runs.append({"workload": name, "trace": trace, "seed": args.seed,
                         "result": result, "detail": detail})
            ok = ok and result["correct"]
            print(f"\n{name} seed {args.seed} {'traced' if trace else 'untraced'}: "
                  f"correct={result['correct']} attempted={result['attempted']} "
                  f"failed={result['failed']} rounds={detail.get('rounds')} "
                  f"samples={detail.get('samples')} (p{100 * TAIL_Q[name]:.0f} tail, "
                  f"{detail.get('samples_beyond_tail')} beyond)")
            for failure in detail.get("failures", []):
                print(f"  CHECK FAILED: {failure}")
            for metric, cell in result["metrics"].items():
                print(f"  {metric:<40} {cell['value']:>14.4f} {cell['unit']}")
            if part:
                with open(spans_path, "a") as fh:
                    fh.write(Path(part).read_text())
                Path(part).unlink()
    out_path.write_text(json.dumps(
        {"host": host, "seconds": seconds, "quick": args.quick, "runs": runs},
        indent=1, sort_keys=True) + "\n")
    print(f"\nresults -> {out_path}\nspans   -> {spans_path}")
    return 0 if ok else 1


# ----------------------------------------------------------------------
def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="measured seconds per run (default: BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=None,
                        help="single run: 0 = end-to-end metrics, 1 = per-layer metrics")
    parser.add_argument("--quick", action="store_true",
                        help="~1/20 of the op counts, one set-up; for the self-test")
    parser.add_argument("--repeat", type=int, default=1,
                        help="full run: untraced runs per workload")
    parser.add_argument("--out", help="full run: results JSON (default out/results.json)")
    parser.add_argument("--trace-out", help="span JSONL (full run default out/spans.jsonl)")
    parser.add_argument("--dump-workload", metavar="NAME", choices=workloads.NAMES,
                        help="write NAME's generated inputs and their blake2b, then exit")
    args = parser.parse_args(argv)

    if args.dump_workload:
        return dump_workload(args.dump_workload, args.seed, args.quick, args.out)
    if harness.usable_cpus() < harness.MIN_CPUS:
        _fail(f"{harness.usable_cpus()} usable CPU(s): the generator and the server "
              f"child each need a core, so numbers taken here would measure the box. "
              f"Run with at least {harness.MIN_CPUS}.")
    if args.trace is None:
        return full_run(args)
    harness.pin_generator()
    if args.workload is None:
        _fail("--trace needs --workload")
    try:
        result, detail = asyncio.run(run_once(
            args.workload, args.seed, _seconds(args), bool(args.trace), args.quick,
            args.trace_out))
    finally:
        server.stop_all()
    print(f"host: {harness.usable_cpus()} usable CPUs, loopback")
    print("DETAIL " + json.dumps(detail, sort_keys=True))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
