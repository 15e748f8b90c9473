"""The closed-loop load generator: a scenario timeline replayed as traffic.

HaLert's observation (PAPERS.md) is that the post-disaster regime is a
*load* problem as much as a reachability problem: what matters is
whether the network keeps answering while a city's worth of phones
hammers it.  This module turns a :class:`repro.scenario.ScenarioSpec`
into exactly that traffic:

1. :func:`generate_trace` builds a **deterministic request trace** — a
   seeded city of simulated phones, each homed in a real building of
   the scenario's city, walking slightly epoch to epoch and, every
   epoch of the outage timeline, checking its postbox, messaging other
   phones (urgent sends fire the push path), publishing and polling
   geocasts, and resolving well-known names.  Same spec + same seed →
   byte-identical JSON (:meth:`LoadTrace.to_json`), which CI checks.

2. :func:`run_loadgen` replays the trace **closed-loop**: each virtual
   connection keeps exactly one request in flight and issues the next
   the moment the previous response lands (a phone does not pipeline).
   Requests are partitioned over connections by owner hash, so one
   phone's timeline is always replayed in order.  The report carries
   sustained requests/s and client-observed p50/p99 latency.

All randomness flows through :func:`repro.experiments.seed_for` keyed
on the spec's stream label — the trace is independent of worker count,
host, and wall clock.
"""

from __future__ import annotations

import asyncio
import base64
import hashlib
import json
import time
from dataclasses import dataclass, field
from typing import Callable

import random

from ..apps import DirectoryRecord
from ..city import make_city
from ..experiments import seed_for
from ..postbox import KeyPair, PostboxAddress
from ..scenario import ScenarioSpec

#: Default per-epoch action probabilities for one phone.
DEFAULT_MIX = {
    "send": 0.35,
    "urgent": 0.30,  # of sends
    "geocast_publish": 0.10,
    "geocast_poll": 0.20,
    "pushes": 0.15,
    "lookup": 0.05,
}

#: Well-known names (shelters, aid stations) published at trace start.
WELL_KNOWN_NAMES = 8


@dataclass(frozen=True)
class TraceRequest:
    """One request of the generated trace, fully rendered."""

    seq: int
    t_s: float
    owner: str
    kind: str
    method: str
    path: str
    body: dict

    def to_dict(self) -> dict:
        return {
            "seq": self.seq,
            "t_s": self.t_s,
            "owner": self.owner,
            "kind": self.kind,
            "method": self.method,
            "path": self.path,
            "body": self.body,
        }


@dataclass
class LoadTrace:
    """A deterministic request trace derived from one scenario."""

    scenario: str
    city: str
    seed: int
    phones: int
    epochs: int
    epoch_hours: float
    requests: list[TraceRequest] = field(default_factory=list)

    def to_json(self, indent: int | None = None) -> str:
        """Byte-identical for equal (spec, seed, knobs) — the CI
        determinism check serializes two generations and compares."""
        return json.dumps(
            {
                "scenario": self.scenario,
                "city": self.city,
                "seed": self.seed,
                "phones": self.phones,
                "epochs": self.epochs,
                "epoch_hours": self.epoch_hours,
                "requests": [r.to_dict() for r in self.requests],
            },
            sort_keys=True,
            indent=indent,
        )

    def kind_counts(self) -> dict[str, int]:
        counts: dict[str, int] = {}
        for request in self.requests:
            counts[request.kind] = counts.get(request.kind, 0) + 1
        return dict(sorted(counts.items()))


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _payload_for(seed: int, tag: str, size: int = 96) -> str:
    """A deterministic pseudo-sealed payload (the service stores opaque
    bytes; real sealing happens on devices)."""
    out = b""
    counter = 0
    while len(out) < size:
        out += hashlib.blake2b(
            f"{seed}:{tag}:{counter}".encode(), digest_size=32
        ).digest()
        counter += 1
    return _b64(out[:size])


def generate_trace(
    spec: ScenarioSpec,
    phones: int = 200,
    mix: dict[str, float] | None = None,
    checks_per_epoch: int = 1,
) -> LoadTrace:
    """Render a scenario timeline into a deterministic request trace.

    Args:
        spec: the scenario whose world and epoch grid drive the trace.
        phones: simulated devices, each homed in a seeded city building.
        mix: per-epoch action probabilities (see ``DEFAULT_MIX``).
        checks_per_epoch: postbox checks each phone makes per epoch.

    Raises:
        ValueError: for a non-positive phone or check count.
    """
    if phones < 2:
        raise ValueError("need at least two phones (sends have recipients)")
    if checks_per_epoch < 1:
        raise ValueError("phones must check at least once per epoch")
    mix = {**DEFAULT_MIX, **(mix or {})}
    rng = random.Random(
        seed_for(spec.world.seed, phones, stream=spec.stream() + ":loadgen")
    )
    city = make_city(spec.world.city_name, seed=spec.world.seed)
    centroids = [b.centroid() for b in city.buildings]
    epoch_s = spec.epoch_hours * 3600.0

    owners = [f"phone-{i:05d}" for i in range(phones)]
    homes = [rng.randrange(len(centroids)) for _ in range(phones)]

    requests: list[tuple[float, int, str, str, str, str, dict]] = []
    pending: list[tuple[float, str, str, str, str, dict]] = []

    def emit(t_s: float, owner: str, kind: str, method: str, path: str, body: dict):
        pending.append((t_s, owner, kind, method, path, body))

    # Trace prelude: well-known names (shelters) published at t=0 so
    # directory lookups during the outage resolve.  Keys are seeded —
    # deterministic bytes, deterministic trace.
    well_known: list[str] = []
    for i in range(WELL_KNOWN_NAMES):
        keypair = KeyPair.generate(rng, bits=512)
        building = rng.randrange(len(centroids))
        address = PostboxAddress.for_key(keypair.public, city.buildings[building].id)
        record = DirectoryRecord.create(keypair, address, sequence=1)
        well_known.append(address.name)
        emit(
            0.0,
            f"shelter-{i:02d}",
            "directory_publish",
            "POST",
            "/v1/directory/publish",
            {
                "address": _b64(address.to_bytes()),
                "sequence": record.sequence,
                "signature": _b64(record.signature),
            },
        )

    for epoch in range(spec.epochs):
        base_s = epoch * epoch_s
        for idx, owner in enumerate(owners):
            home = centroids[homes[idx]]
            # A short random walk: the phone drifts around its home
            # block, a different offset each epoch.
            x = home.x + rng.uniform(-40.0, 40.0)
            y = home.y + rng.uniform(-40.0, 40.0)
            for _ in range(checks_per_epoch):
                t = base_s + rng.uniform(0.0, epoch_s)
                emit(
                    t,
                    owner,
                    "check",
                    "POST",
                    "/v1/postbox/check",
                    {"owner": owner, "x": x, "y": y, "now_s": t},
                )
            if rng.random() < mix["send"]:
                t = base_s + rng.uniform(0.0, epoch_s)
                recipient = owners[rng.randrange(phones - 1)]
                if recipient == owner:
                    recipient = owners[phones - 1]
                urgent = rng.random() < mix["urgent"]
                emit(
                    t,
                    owner,
                    "send",
                    "POST",
                    "/v1/postbox/send",
                    {
                        "owner": recipient,
                        "payload": _payload_for(
                            spec.world.seed, f"{epoch}:{owner}:{recipient}"
                        ),
                        "urgent": urgent,
                        "now_s": t,
                    },
                )
            if rng.random() < mix["geocast_publish"]:
                t = base_s + rng.uniform(0.0, epoch_s)
                target = centroids[rng.randrange(len(centroids))]
                emit(
                    t,
                    owner,
                    "geocast_publish",
                    "POST",
                    "/v1/geocast/publish",
                    {
                        "x": target.x,
                        "y": target.y,
                        "radius": rng.uniform(150.0, 400.0),
                        "payload": _payload_for(
                            spec.world.seed, f"geo:{epoch}:{owner}"
                        ),
                        "ttl_s": epoch_s,
                        "now_s": t,
                    },
                )
            if rng.random() < mix["geocast_poll"]:
                t = base_s + rng.uniform(0.0, epoch_s)
                emit(
                    t,
                    owner,
                    "geocast_poll",
                    "POST",
                    "/v1/geocast/poll",
                    {"x": x, "y": y, "now_s": t},
                )
            if rng.random() < mix["pushes"]:
                t = base_s + rng.uniform(0.0, epoch_s)
                emit(
                    t,
                    owner,
                    "pushes",
                    "POST",
                    "/v1/postbox/pushes",
                    {"owner": owner},
                )
            if rng.random() < mix["lookup"]:
                t = base_s + rng.uniform(0.0, epoch_s)
                emit(
                    t,
                    owner,
                    "lookup",
                    "POST",
                    "/v1/directory/lookup",
                    {"name": well_known[rng.randrange(len(well_known))]},
                )

    # Stable global order: by time, then insertion (ties must not
    # depend on sort instability for byte-identity).
    ordered = sorted(
        enumerate(pending), key=lambda item: (item[1][0], item[0])
    )
    trace = LoadTrace(
        scenario=spec.name,
        city=spec.world.city_name,
        seed=spec.world.seed,
        phones=phones,
        epochs=spec.epochs,
        epoch_hours=spec.epoch_hours,
    )
    for seq, (_, (t_s, owner, kind, method, path, body)) in enumerate(ordered):
        trace.requests.append(
            TraceRequest(
                seq=seq,
                t_s=round(t_s, 6),
                owner=owner,
                kind=kind,
                method=method,
                path=path,
                body=body,
            )
        )
    return trace


# ---------------------------------------------------------------------------
# closed-loop replay


@dataclass
class LoadReport:
    """What the closed-loop replay observed, client-side."""

    requests: int
    wall_s: float
    req_per_s: float
    p50_ms: float
    p99_ms: float
    max_ms: float
    status_counts: dict[int, int]
    connections: int
    confirms: int
    errors: int  # 5xx
    rejects: int  # 429 + 503 (typed backpressure)
    retries: int = 0  # idempotent reconnect-and-retry events

    def to_dict(self) -> dict:
        return {
            "requests": self.requests,
            "wall_s": self.wall_s,
            "req_per_s": self.req_per_s,
            "p50_ms": self.p50_ms,
            "p99_ms": self.p99_ms,
            "max_ms": self.max_ms,
            "status_counts": {str(k): v for k, v in sorted(self.status_counts.items())},
            "connections": self.connections,
            "confirms": self.confirms,
            "errors": self.errors,
            "rejects": self.rejects,
            "retries": self.retries,
        }


def _quantile(sorted_values: list[float], q: float) -> float:
    if not sorted_values:
        return 0.0
    index = min(len(sorted_values) - 1, max(0, round(q * (len(sorted_values) - 1))))
    return sorted_values[index]


#: Request kinds that are safe to retry once on a dropped connection
#: (reads and drains whose re-issue cannot double-apply a write).
IDEMPOTENT_KINDS = frozenset({"check", "pushes", "geocast_poll", "lookup"})


def partition_trace(
    trace: LoadTrace, connections: int
) -> tuple[list[TraceRequest], list[list[TraceRequest]]]:
    """Split a trace into the serial prelude and per-connection buckets.

    Requests are partitioned by ``blake2b(owner) % connections`` — the
    same digest the sharded store uses to pick a shard.
    """
    prelude = [r for r in trace.requests if r.kind == "directory_publish"]
    buckets: list[list[TraceRequest]] = [[] for _ in range(connections)]
    for request in trace.requests:
        if request.kind == "directory_publish":
            continue
        digest = hashlib.blake2b(request.owner.encode(), digest_size=4).digest()
        buckets[int.from_bytes(digest, "big") % connections].append(request)
    return prelude, buckets


@dataclass
class _BucketResult:
    """One connection's share of the replay, raw."""

    latencies: list[float] = field(default_factory=list)
    counts: dict[int, int] = field(default_factory=dict)
    confirms: int = 0
    retries: int = 0


async def _replay_bucket(
    client, requests: list[TraceRequest], capture: list | None = None
) -> _BucketResult:
    """Replay one connection's requests closed-loop.

    Successful ``pushes`` responses trigger immediate ``confirm``
    requests for every returned push record — the closed loop exercises
    the full exactly-once path, and those confirms are counted and
    timed like any other request.
    """
    result = _BucketResult()
    try:
        for request in requests:
            idempotent = request.kind in IDEMPOTENT_KINDS
            t0 = time.perf_counter()
            status, payload = await client.request(
                request.method, request.path, request.body, idempotent=idempotent
            )
            result.latencies.append(time.perf_counter() - t0)
            result.counts[status] = result.counts.get(status, 0) + 1
            if capture is not None:
                capture.append([status, payload])
            if request.kind == "pushes" and status == 200 and payload.get("pushes"):
                for push in payload["pushes"]:
                    t1 = time.perf_counter()
                    confirm_status, confirm_payload = await client.request(
                        "POST",
                        "/v1/postbox/confirm",
                        {"owner": request.owner, "msg_id": push["msg_id"]},
                    )
                    result.latencies.append(time.perf_counter() - t1)
                    result.counts[confirm_status] = (
                        result.counts.get(confirm_status, 0) + 1
                    )
                    result.confirms += 1
                    if capture is not None:
                        capture.append([confirm_status, confirm_payload])
    finally:
        result.retries = getattr(client, "retries", 0)
        await client.close()
    return result


def _assemble_report(
    results: list[_BucketResult],
    prelude_counts: dict[int, int],
    wall_s: float,
    connections: int,
) -> LoadReport:
    latencies = sorted(lat for r in results for lat in r.latencies)
    status_counts = dict(prelude_counts)
    for r in results:
        for status, n in r.counts.items():
            status_counts[status] = status_counts.get(status, 0) + n
    total = len(latencies)
    return LoadReport(
        requests=total,
        wall_s=wall_s,
        req_per_s=total / wall_s if wall_s > 0 else 0.0,
        p50_ms=_quantile(latencies, 0.50) * 1e3,
        p99_ms=_quantile(latencies, 0.99) * 1e3,
        max_ms=latencies[-1] * 1e3 if latencies else 0.0,
        status_counts=status_counts,
        connections=connections,
        confirms=sum(r.confirms for r in results),
        errors=sum(n for s, n in status_counts.items() if s >= 500),
        rejects=status_counts.get(429, 0) + status_counts.get(503, 0),
        retries=sum(r.retries for r in results),
    )


async def _run_prelude(client, prelude: list[TraceRequest], capture: list | None):
    counts: dict[int, int] = {}
    try:
        for request in prelude:
            status, payload = await client.request(
                request.method, request.path, request.body
            )
            counts[status] = counts.get(status, 0) + 1
            if capture is not None:
                capture.append([status, payload])
    finally:
        await client.close()
    return counts


async def run_loadgen(
    trace: LoadTrace,
    client_factory: Callable[[], object],
    connections: int = 32,
    capture: list | None = None,
) -> LoadReport:
    """Replay a trace closed-loop and measure what the clients saw.

    Args:
        trace: the deterministic request trace.
        client_factory: builds one transport per connection — a
            :class:`~repro.service.client.ServiceClient` for TCP or an
            :class:`~repro.service.app.InProcessClient` for no-socket
            runs; anything with ``request``/``close`` coroutines works.
        connections: virtual phones' multiplexing degree.  Requests are
            partitioned by owner hash so one owner's requests replay in
            trace order on one connection.
        capture: append ``[status, payload]`` per response, in replay
            order.  Deterministic only with ``connections=1`` (one
            bucket = strict trace order) — the CI byte-identity guard
            runs exactly that configuration.
    """
    if connections < 1:
        raise ValueError("need at least one connection")
    # The t=0 directory prelude runs serially before the fan-out:
    # well-known names must exist before any connection can race a
    # lookup past their publish.
    prelude, buckets = partition_trace(trace, connections)
    prelude_counts: dict[int, int] = {}
    if prelude:
        prelude_counts = await _run_prelude(client_factory(), prelude, capture)

    wall_start = time.perf_counter()
    results = await asyncio.gather(
        *(_replay_bucket(client_factory(), bucket, capture) for bucket in buckets)
    )
    wall_s = time.perf_counter() - wall_start
    return _assemble_report(list(results), prelude_counts, wall_s, connections)


def format_report(report: LoadReport, trace: LoadTrace) -> str:
    """A compact human-readable summary (the JSON is the artifact)."""
    lines = [
        (
            f"loadgen: {trace.scenario} on {trace.city} — {trace.phones} phones, "
            f"{trace.epochs} epochs, {len(trace.requests)} trace requests"
        ),
        (
            f"  {report.requests} requests ({report.confirms} push confirms, "
            f"{report.retries} idempotent retries) over {report.connections} "
            f"connections in {report.wall_s:.2f} s"
        ),
        (
            f"  sustained {report.req_per_s:,.0f} req/s — "
            f"p50 {report.p50_ms:.2f} ms, p99 {report.p99_ms:.2f} ms, "
            f"max {report.max_ms:.1f} ms"
        ),
        (
            f"  statuses: "
            + ", ".join(f"{s}×{n}" for s, n in sorted(report.status_counts.items()))
            + f" ({report.errors} errors, {report.rejects} backpressure rejects)"
        ),
    ]
    by_kind = ", ".join(f"{k}={v}" for k, v in trace.kind_counts().items())
    lines.append(f"  mix: {by_kind}")
    return "\n".join(lines)
