"""Service-layer throughput benchmark (``repro.service``).

Boots the always-on DFN service on a daemon thread (its own event
loop, ephemeral port — exactly what ``repro serve`` runs), renders a
scenario timeline into a deterministic request trace, and replays it
closed-loop from the main thread:

- **TCP** — ``ServiceClient`` connections against the real HTTP/1.1
  server: sustained requests/s, client-observed p50/p99 latency, and
  the push-confirm round trips the trace's ``pushes`` responses force;
- **in-process** — the same trace through ``InProcessClient`` (no
  sockets), isolating dispatch + sharded-store cost from the network
  stack;
- **correctness along the way** — zero 5xx responses, and every urgent
  send's push eventually confirmed through the exactly-once path.

Two stages added with the multi-core scale-out:

- **worker scaling** — the same trace against ``--workers`` 1/2/4
  cluster processes (worker-affine connections, zero forwarding hops);
  records ``tcp_wN_req_per_s``, the ``worker_scaling`` ratio, and the
  host ``cpu_count``.  The ≥3x floor asserts only when the box has the
  cores to show it (``SERVICE_BENCH_SCALING_MIN_CPUS``).
- **push latency** — timed urgent-send → stream-push round trips;
  ``push_p99_s`` must beat ``SERVICE_BENCH_PUSH_P99_S`` (default 50 ms,
  i.e. far under the 0.5 s poll fallback — only the wake path passes).

One JSON perf record is emitted at teardown (stdout, and
``$SERVICE_PERF_JSON`` when set).  ``SERVICE_BENCH_PHONES`` and
``SERVICE_BENCH_CONNECTIONS`` scale the workload (CI smoke shrinks
both); ``SERVICE_BENCH_SCENARIO`` picks the timeline,
``SERVICE_BENCH_WORKERS`` the scaling ladder, and
``SERVICE_BENCH_FLOOR_REQ_S`` optionally asserts a TCP throughput
floor (the acceptance runs use 5000).
"""

import asyncio
import base64
import contextlib
import os
import threading
import time

import pytest
from conftest import perf_recording

from repro.scenario import make_scenario
from repro.service import (
    ClusterConfig,
    ClusterSupervisor,
    InProcessClient,
    PushStreamClient,
    ServiceClient,
    build_app,
    generate_trace,
    run_loadgen,
    run_service,
)

SCENARIO = os.environ.get("SERVICE_BENCH_SCENARIO", "river-flood")
PHONES = int(os.environ.get("SERVICE_BENCH_PHONES", "2000"))
CONNECTIONS = int(os.environ.get("SERVICE_BENCH_CONNECTIONS", "32"))
SHARDS = int(os.environ.get("SERVICE_BENCH_SHARDS", "8"))
FLOOR_REQ_S = float(os.environ.get("SERVICE_BENCH_FLOOR_REQ_S", "0"))
#: Worker counts for the scale-out stage (``repro serve --workers N``).
WORKERS_SET = tuple(
    int(w) for w in os.environ.get("SERVICE_BENCH_WORKERS", "1,2,4").split(",")
)
#: Scaling floor asserted only on machines with enough cores to show it.
SCALING_FLOOR = float(os.environ.get("SERVICE_BENCH_SCALING_FLOOR", "3.0"))
SCALING_MIN_CPUS = int(os.environ.get("SERVICE_BENCH_SCALING_MIN_CPUS", "4"))
#: Wake-on-delivery budget: stream push p99 must land under this.
PUSH_P99_MAX_S = float(os.environ.get("SERVICE_BENCH_PUSH_P99_S", "0.050"))
PUSH_SAMPLES = int(os.environ.get("SERVICE_BENCH_PUSH_SAMPLES", "200"))
SEED = 0


@pytest.fixture(scope="module")
def perf_record():
    """Accumulates measurements; dumped as one JSON record at teardown."""
    yield from perf_recording(
        "service", "SERVICE_PERF_JSON", seed=SEED, scenario=SCENARIO, phones=PHONES,
        connections=CONNECTIONS, shards=SHARDS, workers_set=list(WORKERS_SET),
    )


@pytest.fixture(scope="module")
def trace(perf_record):
    spec = make_scenario(SCENARIO, seed=SEED)
    t0 = time.perf_counter()
    built = generate_trace(spec, phones=PHONES)
    perf_record["trace_build_s"] = time.perf_counter() - t0
    perf_record["trace_requests"] = len(built.requests)
    return built


@pytest.fixture(scope="module")
def tcp_port():
    """The service on a daemon thread with its own loop, like a real
    ``repro serve`` process; yields the bound ephemeral port."""
    holder: dict = {}
    ready = threading.Event()

    def server_thread() -> None:
        async def main() -> None:
            app = build_app(city_name="gridport", seed=SEED, n_shards=SHARDS)
            stop = asyncio.Event()
            holder["loop"] = asyncio.get_running_loop()
            holder["stop"] = stop

            def on_ready(server) -> None:
                holder["port"] = server.port
                ready.set()

            await run_service(
                app, port=0, ready=on_ready, stop=stop,
                install_signal_handlers=False,
            )

        asyncio.run(main())

    thread = threading.Thread(target=server_thread, daemon=True)
    thread.start()
    assert ready.wait(timeout=15), "service did not come up"
    yield holder["port"]
    holder["loop"].call_soon_threadsafe(holder["stop"].set)
    thread.join(timeout=15)


@contextlib.contextmanager
def _serve_workers(n_workers: int):
    """One serving endpoint with ``n_workers`` cores behind it.

    ``n_workers == 1`` is the classic single-process server (on a
    daemon thread, like the ``tcp_port`` fixture); ``> 1`` forks a real
    :class:`ClusterSupervisor` — the same processes ``repro serve
    --workers N`` runs.  Yields the bound port.
    """
    if n_workers == 1:
        holder: dict = {}
        ready = threading.Event()

        def server_thread() -> None:
            async def main() -> None:
                app = build_app(
                    city_name="gridport", seed=SEED, n_shards=SHARDS
                )
                stop = asyncio.Event()
                holder["loop"] = asyncio.get_running_loop()
                holder["stop"] = stop

                def on_ready(server) -> None:
                    holder["port"] = server.port
                    ready.set()

                await run_service(
                    app, port=0, ready=on_ready, stop=stop,
                    install_signal_handlers=False,
                )

            asyncio.run(main())

        thread = threading.Thread(target=server_thread, daemon=True)
        thread.start()
        assert ready.wait(timeout=15), "service did not come up"
        try:
            yield holder["port"]
        finally:
            holder["loop"].call_soon_threadsafe(holder["stop"].set)
            thread.join(timeout=15)
    else:
        supervisor = ClusterSupervisor(
            ClusterConfig(n_workers=n_workers, n_shards=SHARDS), port=0
        )
        supervisor.start()
        try:
            yield supervisor.port
        finally:
            supervisor.stop()
            assert supervisor.wait(timeout=30) == 0, "worker crashed"


async def _wait_ready(port: int) -> None:
    for _ in range(200):
        client = ServiceClient("127.0.0.1", port)
        try:
            status, out = await client.request("GET", "/v1/healthz")
            if status == 200 and out.get("started"):
                return
        except OSError:
            pass
        finally:
            await client.close()
        await asyncio.sleep(0.05)
    raise AssertionError("service never became ready")


def _record(perf_record, prefix: str, report) -> None:
    perf_record[f"{prefix}_requests"] = report.requests
    perf_record[f"{prefix}_wall_s"] = report.wall_s
    perf_record[f"{prefix}_req_per_s"] = report.req_per_s
    perf_record[f"{prefix}_p50_s"] = report.p50_ms / 1e3
    perf_record[f"{prefix}_p99_s"] = report.p99_ms / 1e3
    perf_record[f"{prefix}_confirms"] = report.confirms
    perf_record[f"{prefix}_errors"] = report.errors
    perf_record[f"{prefix}_rejects"] = report.rejects


def test_worker_scaling(perf_record, trace):
    """The tentpole number: the same trace replayed against 1, 2, and 4
    worker processes behind one port.

    Loadgen connections pin themselves worker-affine (``prefer_worker``
    redial) so owner-keyed traffic lands on its home worker with zero
    forwarding hops — the configuration the scale-out was designed for.
    The ≥``SCALING_FLOOR``x assertion only fires on machines with at
    least ``SCALING_MIN_CPUS`` cores; the measured ratio and the host's
    ``cpu_count`` are always recorded so small boxes report honest
    numbers instead of vacuously passing large ones.

    This test runs first in the module on purpose: the cluster forks
    worker processes, and forking before the ``tcp_port`` daemon-thread
    server exists keeps the children free of inherited loop state.
    """
    perf_record["cpu_count"] = os.cpu_count() or 1
    perf_record["workers_set"] = list(WORKERS_SET)
    throughput: dict[int, float] = {}
    for n_workers in WORKERS_SET:
        with _serve_workers(n_workers) as port:
            asyncio.run(_wait_ready(port))
            affine = n_workers > 1 and CONNECTIONS % n_workers == 0

            def factory(index: int, *, port=port, n=n_workers, pin=affine):
                return ServiceClient(
                    "127.0.0.1",
                    port,
                    prefer_worker=(index % n) if pin else None,
                )

            report = asyncio.run(
                run_loadgen(trace, factory, connections=CONNECTIONS)
            )
            _record(perf_record, f"tcp_w{n_workers}", report)
            assert report.errors == 0, (
                f"5xx at {n_workers} workers: {report.status_counts}"
            )
            throughput[n_workers] = report.req_per_s
    baseline = throughput[min(throughput)]
    peak_workers = max(throughput)
    scaling = throughput[peak_workers] / baseline
    perf_record["worker_scaling"] = scaling
    perf_record["worker_scaling_at"] = peak_workers
    if perf_record["cpu_count"] >= SCALING_MIN_CPUS and peak_workers >= 4:
        assert scaling >= SCALING_FLOOR, (
            f"{peak_workers} workers gave {scaling:.2f}x over 1 worker "
            f"(floor {SCALING_FLOOR}x on {perf_record['cpu_count']} cores)"
        )


def test_tcp_throughput(perf_record, trace, tcp_port):
    """Closed-loop replay over real sockets: the headline number."""
    report = asyncio.run(
        run_loadgen(
            trace,
            lambda index: ServiceClient("127.0.0.1", tcp_port),
            connections=CONNECTIONS,
        )
    )
    _record(perf_record, "tcp", report)
    assert report.errors == 0, f"5xx responses: {report.status_counts}"
    assert report.confirms > 0, "trace never exercised the push-confirm path"
    if FLOOR_REQ_S:
        assert report.req_per_s >= FLOOR_REQ_S, (
            f"sustained {report.req_per_s:,.0f} req/s "
            f"< floor {FLOOR_REQ_S:,.0f}"
        )


def test_inprocess_throughput(perf_record, trace):
    """Same trace, no sockets: dispatch + sharded-store cost alone."""

    async def run() -> object:
        app = build_app(city_name="gridport", seed=SEED, n_shards=SHARDS)
        await app.start()
        try:
            return await run_loadgen(
                trace,
                lambda index: InProcessClient(app),
                connections=CONNECTIONS,
            )
        finally:
            await app.close()

    report = asyncio.run(run())
    _record(perf_record, "inproc", report)
    assert report.errors == 0, f"5xx responses: {report.status_counts}"


def test_push_latency(perf_record, tcp_port):
    """Wake-on-delivery, timed: urgent send → push frame on an open
    stream.  The p99 must come in far under the 0.5 s poll fallback —
    a poll-paced stream cannot pass this, only the wake path can."""

    async def run() -> list[float]:
        owner = "bench-push-owner"
        client = ServiceClient("127.0.0.1", tcp_port)
        await client.request(
            "POST",
            "/v1/postbox/check",
            {"owner": owner, "x": 0.0, "y": 0.0, "now_s": 0.0},
        )
        stream = PushStreamClient("127.0.0.1", tcp_port, owner=owner)
        await stream.connect()
        payload = base64.b64encode(b"latency-probe").decode("ascii")
        samples: list[float] = []
        try:
            for i in range(PUSH_SAMPLES):
                t0 = time.perf_counter()
                status, out = await client.request(
                    "POST",
                    "/v1/postbox/send",
                    {
                        "owner": owner,
                        "payload": payload,
                        "urgent": True,
                        "now_s": float(i + 1),
                    },
                )
                assert status == 200
                push = await stream.next_push(timeout_s=5.0)
                samples.append(time.perf_counter() - t0)
                assert push["msg_id"] == out["msg_id"]
                assert await stream.confirm(push["msg_id"]) is True
        finally:
            await stream.close()
            await client.close()
        return samples

    samples = sorted(asyncio.run(run()))
    p50 = samples[len(samples) // 2]
    p99 = samples[min(len(samples) - 1, int(len(samples) * 0.99))]
    perf_record["push_samples"] = len(samples)
    perf_record["push_p50_s"] = p50
    perf_record["push_p99_s"] = p99
    assert p99 < PUSH_P99_MAX_S, (
        f"push p99 {p99 * 1e3:.2f} ms over budget "
        f"({PUSH_P99_MAX_S * 1e3:.0f} ms)"
    )
