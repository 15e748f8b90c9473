"""The ``postbox_rush`` workload: a phone trace replayed at the service.

``generate_trace(make_scenario("river-flood"))`` replayed closed-loop
over ``connection_cap()`` TCP connections with ``run_loadgen``'s
ordering: requests are partitioned by owner hash, so one phone's
timeline is always replayed in order on one connection.  A round is
the next segment of the trace; both connections finish their share
before the next round starts.
"""

from __future__ import annotations

import asyncio
import hashlib
import time
from pathlib import Path

from repro.obs import config_hash
from repro.service import InProcessClient, ServiceClient, build_app
from repro.service.loadgen import IDEMPOTENT_KINDS, partition_trace

import workloads
from harness import (
    OP_TIMEOUT_S,
    Block,
    MeasuredClock,
    Tracer,
    connection_cap,
    p50_ms,
    ratio,
)
from server import HOST, ServerChild

#: Kinds that change server state; the rest (== IDEMPOTENT_KINDS) read.
WRITE_KINDS = frozenset({"send", "confirm", "geocast_publish"})
#: Requests of the sockets-free replay behind ``service.app.us_per_req``.
_INPROCESS_REQUESTS = 6000


class RushWorkload:
    def __init__(self, seed: int, sizes: workloads.Sizes, root: Path, tracer: Tracer):
        self.seed = seed
        self.sizes = sizes
        self.root = root
        self.tracer = tracer
        self.layer: dict[str, float] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.round0: dict = {}
        self.server: ServerChild | None = None
        self._clients: list[ServiceClient] = []
        self._cursor = 0
        self._sent: dict[tuple[str, int], int] = {}
        self._seen: dict[tuple[str, int], int] = {}
        self.confirm_refused = 0
        self.rejects = 0
        self.by_kind: dict[str, list[float]] = {}
        self.queue_depth_max = 0
        self.exhausted = False
        self.audited = 0
        self._owner_connection: dict[str, int] = {}

    # ------------------------------------------------------------------
    async def setup(self) -> None:
        t0 = time.perf_counter()
        self._load_trace()
        self.layer["service.trace_build_s"] = time.perf_counter() - t0
        self.server = ServerChild(self.root, city=self.trace.city, seed=self.seed)
        await self.server.start()
        self.layer["service.boot_s"] = self.server.boot_s
        self._clients = [
            ServiceClient(HOST, self.server.port) for _ in range(connection_cap())
        ]
        # Well-known names must exist before any lookup can race them.
        for request in self._prelude:
            async with asyncio.timeout(OP_TIMEOUT_S):
                status, _ = await self._clients[0].request(
                    request.method, request.path, request.body
                )
            if status != 200:
                raise RuntimeError(f"directory prelude answered {status}")

    @property
    def stats_client(self) -> ServiceClient:
        return self._clients[0]

    def _load_trace(self) -> None:
        """The trace, split into the serial directory prelude and the rest."""
        self.trace = workloads.postbox_rush_trace(self.seed, self.sizes)
        prelude, buckets = partition_trace(self.trace, 1)
        self._prelude, self._requests = prelude, buckets[0]

    @property
    def _warmup_requests(self) -> int:
        return self.sizes.rush_segment // 4

    def dump_inputs(self) -> list:
        self._load_trace()
        start = self._warmup_requests
        return [r.to_dict() for r in self._requests[start:start + self.sizes.rush_segment]]

    async def warmup(self) -> None:
        await self._replay_segment(self._warmup_requests, MeasuredClock(), False)

    async def close(self) -> None:
        for client in self._clients:
            await client.close()
        self._clients = []
        if self.server is not None:
            self.server.stop()

    # ------------------------------------------------------------------
    async def round(self, index: int, clock: MeasuredClock, traced: bool) -> Block:
        start = self._cursor
        block = await self._replay_segment(self.sizes.rush_segment, clock, traced)
        if index == 0:
            segment = self._requests[start:self._cursor]
            self.round0 = {"inputs": config_hash([r.to_dict() for r in segment])}
        stats = await self.server.stats(self._clients[0])
        self.queue_depth_max = max(self.queue_depth_max, stats["store"]["queue_depth_max"])
        return block

    async def _replay_segment(self, count: int, clock: MeasuredClock, traced: bool) -> Block:
        segment = self._requests[self._cursor:self._cursor + count]
        self._cursor += len(segment)
        self.exhausted = self._cursor >= len(self._requests)
        shares: list[list] = [[] for _ in self._clients]
        for request in segment:
            shares[self._connection_of(request.owner)].append(request)
        self.tracer.enabled = traced
        clock.start()
        try:
            results = await asyncio.gather(
                *(self._replay(c, share) for c, share in zip(self._clients, shares))
            )
        finally:
            timed_s = clock.stop()
            self.tracer.enabled = False
        latencies = [lat for ok, errs in results for lat in ok]
        errors = sum(errs for ok, errs in results)
        self.attempted += len(latencies) + errors
        return Block(
            ops=len(latencies) + errors,
            done=len(latencies),
            timed_s=timed_s,
            latencies=latencies,
            traced=traced,
            errors=errors,
        )

    def _connection_of(self, owner: str) -> int:
        """``partition_trace``'s owner hash, so per-owner order is kept."""
        index = self._owner_connection.get(owner)
        if index is None:
            raw = hashlib.blake2b(owner.encode(), digest_size=4).digest()
            index = int.from_bytes(raw, "big") % len(self._clients)
            self._owner_connection[owner] = index
        return index

    async def _replay(self, client: ServiceClient, requests: list) -> tuple[list[float], int]:
        latencies: list[float] = []
        errors = 0
        for request in requests:
            ok, payload = await self._one(
                client, request.kind, request.seq, request.method, request.path,
                request.body, latencies,
            )
            errors += not ok
            if not ok:
                continue
            if request.kind == "send":
                key = (request.body["owner"], payload["msg_id"])
                self._sent[key] = self._sent.get(key, 0) + 1
            elif request.kind == "check":
                for message in payload["messages"]:
                    self._note_seen(request.owner, message["msg_id"])
            elif request.kind == "pushes":
                for push in payload["pushes"]:
                    ok, _ = await self._one(
                        client, "confirm", request.seq, "POST", "/v1/postbox/confirm",
                        {"owner": request.owner, "msg_id": push["msg_id"]}, latencies,
                        owner_seen=request.owner,
                    )
                    errors += not ok
        return latencies, errors

    async def _one(self, client, kind, seq, method, path, body, latencies,
                   owner_seen: str | None = None) -> tuple[bool, dict]:
        """One timed round trip; False when it counts as an error."""
        t0 = time.perf_counter()
        try:
            with self.tracer.span("service.request", op=seq, attrs={"kind": kind}):
                async with asyncio.timeout(OP_TIMEOUT_S):
                    status, payload = await client.request(
                        method, path, body, idempotent=kind in IDEMPOTENT_KINDS
                    )
        except (TimeoutError, OSError, asyncio.IncompleteReadError) as exc:
            await client.close()
            self.failures.append(f"seq {seq} {kind}: {type(exc).__name__}: {exc}")
            return False, {}
        latency = time.perf_counter() - t0
        if status == 409 and kind == "confirm":
            # A check between the send and this poll already drained the
            # message: a legitimate refusal, counted but not an error.
            self.confirm_refused += 1
        elif status != 200:
            if status in (429, 503):
                self.rejects += 1
            self.failures.append(f"seq {seq} {kind}: status {status}")
            return False, payload
        elif owner_seen is not None:
            self._note_seen(owner_seen, body["msg_id"])
        latencies.append(latency)
        self.by_kind.setdefault(kind, []).append(latency)
        return True, payload

    def _note_seen(self, owner: str, msg_id: int) -> None:
        key = (owner, msg_id)
        self._seen[key] = self._seen.get(key, 0) + 1

    # ------------------------------------------------------------------
    async def finish(self) -> None:
        """Per-owner drain, then the exactly-once audit."""
        client = self._clients[0]
        # Just after the last replayed request: inside the retention
        # window, so nothing expires unread.
        drain_s = self._requests[self._cursor - 1].t_s + 1.0
        owners = sorted({key[0] for key in self._sent if key not in self._seen})
        for owner in owners:
            async with asyncio.timeout(OP_TIMEOUT_S):
                status, payload = await client.request(
                    "POST", "/v1/postbox/check",
                    {"owner": owner, "x": 0.0, "y": 0.0, "now_s": drain_s},
                    idempotent=True,
                )
            if status != 200:
                self.failures.append(f"drain of {owner}: status {status}")
                continue
            for message in payload["messages"]:
                self._note_seen(owner, message["msg_id"])
        wrong = [k for k, n in self._sent.items() if n != 1 or self._seen.get(k, 0) != 1]
        stray = [k for k in self._seen if k not in self._sent]
        if wrong or stray:
            self.failures.append(
                f"exactly-once audit: {len(wrong)} sent messages not seen once, "
                f"{len(stray)} seen but never sent (first: {(wrong + stray)[0]})"
            )
        self.audited = len(self._sent) - len(wrong)

    def delivery_ratio(self) -> float:
        """Sent messages their owner saw exactly once, of all sent."""
        return ratio(self.audited, len(self._sent))

    # ------------------------------------------------------------------
    async def inprocess_us_per_req(self) -> float:
        """The same requests through ``InProcessClient``: no sockets."""
        app = build_app(city_name=self.trace.city, seed=self.seed)
        await app.start()
        try:
            client = InProcessClient(app)
            for request in self._prelude:
                await client.request(request.method, request.path, request.body)
            sample = self._requests[:_INPROCESS_REQUESTS]
            t0 = time.perf_counter()
            n = 0
            for request in sample:
                status, payload = await client.request(request.method, request.path, request.body)
                n += 1
                if request.kind == "pushes" and status == 200:
                    for push in payload["pushes"]:
                        await client.request(
                            "POST", "/v1/postbox/confirm",
                            {"owner": request.owner, "msg_id": push["msg_id"]},
                        )
                        n += 1
            return (time.perf_counter() - t0) * 1e6 / n
        finally:
            await app.close()

    async def per_layer(self) -> dict[str, float]:
        out = dict(self.layer)
        every = [lat for lats in self.by_kind.values() for lat in lats]
        app_us = await self.inprocess_us_per_req()
        mean_us = ratio(sum(every) * 1e6, len(every))
        out["service.app.us_per_req"] = app_us
        out["service.http.us_per_req"] = mean_us - app_us
        out["service.write_p50_ms"] = p50_ms(
            [lat for k in WRITE_KINDS for lat in self.by_kind.get(k, [])]
        )
        out["service.read_p50_ms"] = p50_ms(
            [lat for k in IDEMPOTENT_KINDS for lat in self.by_kind.get(k, [])]
        )
        out["service.shards.queue_depth_max"] = self.queue_depth_max
        out["service.confirm_refused"] = self.confirm_refused
        out["service.rejects"] = self.rejects
        out["service.retries"] = sum(c.retries for c in self._clients)
        return out
