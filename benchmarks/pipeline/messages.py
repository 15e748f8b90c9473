"""The message workloads: ``flood_city`` and ``metro_far``.

One closed-loop lane (1 request connection + 1 push stream) carries a
message through every layer from the packages' public functions:
``router.plan`` -> ``ConduitPolicy.from_header`` ->
``simulate_broadcast_batch`` -> urgent ``POST /v1/postbox/send`` ->
push line on the recipient's stream -> stream confirm.
"""

from __future__ import annotations

import asyncio
import base64
import dataclasses
import hashlib
import math
import random
import time
from pathlib import Path

import numpy as np

from repro.buildgraph import (
    BuildingGraph,
    NoRouteError,
    attach_hierarchy,
    plan_building_route,
)
from repro.city import grid_downtown, metro_grid
from repro.core import BuildingRouter, ConduitMembership
from repro.experiments import (
    PAPER_AP_DENSITY,
    PAPER_CONDUIT_WIDTH,
    PAPER_TRANSMISSION_RANGE,
    seed_for,
)
from repro.mesh import APGraph, find_islands, place_aps
from repro.obs import config_hash
from repro.service import PushStreamClient, ServiceClient
from repro.sim import (
    ConduitPolicy,
    FlowSpec,
    frozen_epoch,
    simulate_broadcast,
    simulate_broadcast_batch,
)

import workloads
from harness import (
    OP_TIMEOUT_S,
    Block,
    MeasuredClock,
    Tracer,
    p50_ms,
    pq_ms,
    ratio,
)
from server import HOST, ServerChild

RECIPIENT = "recipient"
#: Every Nth message is re-simulated with the reference DES (outside
#: the timed region).  A far metro message takes the reference engine
#: ~3 s against ~50 ms on the small city, hence the longer stride.
REFERENCE_EVERY = {"flood_city": 50, "metro_far": 100}
_SERVICE_SPANS = ("service.send", "service.push_wake", "service.confirm")
_SIM_SPANS = ("sim.policy", "sim.broadcast")


def _payload(header_bytes: bytes, op: int) -> str:
    body = hashlib.blake2b(f"msg:{op}".encode(), digest_size=48).digest()
    return base64.b64encode(header_bytes + body).decode("ascii")


class MessageWorkload:
    """State and per-round driver of one message workload."""

    def __init__(self, name: str, seed: int, sizes: workloads.Sizes,
                 root: Path, tracer: Tracer):
        self.name = name
        self.seed = seed
        self.sizes = sizes
        self.root = root
        self.tracer = tracer
        self.mutates = name == "flood_city"
        self.layer: dict[str, float] = {}
        self.failures: list[str] = []
        self.attempted = 0
        self.delivered = 0
        self.round0: dict = {}
        self.server: ServerChild | None = None
        self.exhausted = False
        self._client: ServiceClient | None = None
        self._stream: PushStreamClient | None = None
        self._op = 0
        # Outcome tallies and per-message facts for the per-layer table.
        self.outcomes = {"no_route": 0, "no_source": 0, "undelivered": 0, "delivered": 0}
        self.causes = {"island_split": 0, "mesh_loss": 0}
        self.plan_untraced: list[float] = []
        self.split_traced: list[float] = []
        self.header_bits: list[int] = []
        self.waypoints: list[int] = []
        self.transmissions = 0
        self.receptions = 0
        self.broadcasts = 0
        self.cache_hits = 0
        self.cache_lookups = 0
        self.nodes_expanded = 0
        self.routes_planned = 0
        self.reference_checked = 0

    # ------------------------------------------------------------------
    # Set-up
    # ------------------------------------------------------------------
    async def setup(self) -> None:
        self.build_world()
        await self._connect()

    def build_world(self) -> None:
        """City, mesh and routing: everything the inputs are drawn from."""
        t0 = time.perf_counter()
        if self.mutates:
            n = self.sizes.flood_blocks
            self.city = grid_downtown(seed=0, blocks_x=n, blocks_y=n)
        else:
            n = self.sizes.metro_cols
            self.city = metro_grid(seed=0, cols=n, rows=n, name="metro")
        t1 = time.perf_counter()
        aps = place_aps(self.city, density=PAPER_AP_DENSITY, rng=random.Random(0))
        self.mesh = APGraph(aps, transmission_range=PAPER_TRANSMISSION_RANGE)
        self.mesh.csr()
        self._ap_x, self._ap_y = self.mesh.position_arrays()
        t2 = time.perf_counter()
        self.layer["city.generate_s"] = t1 - t0
        self.layer["mesh.build_s"] = t2 - t1
        self.layer["mesh.aps"] = len(aps)
        self._build_routing()
        self.layer["buildgraph.edges"] = self.graph.edge_count()

        self.candidates = [
            b.id for b in self.city.buildings if self.mesh.aps_in_building(b.id)
        ]
        self.centroids = {
            b: (self.graph.centroid(b).x, self.graph.centroid(b).y) for b in self.graph
        }
        self._ids = np.array(list(self.centroids), dtype=np.int64)
        self._cx = np.array([xy[0] for xy in self.centroids.values()])
        self._cy = np.array([xy[1] for xy in self.centroids.values()])
        self.bounds = self.city.bounds()
        self.diagonal = math.hypot(
            self.bounds[2] - self.bounds[0], self.bounds[3] - self.bounds[1]
        )

    async def _connect(self) -> None:
        self.server = ServerChild(self.root)
        await self.server.start()
        self.layer["service.boot_s"] = self.server.boot_s
        self._client = ServiceClient(HOST, self.server.port)
        # A push needs a cached location: register the recipient with
        # one check before its stream opens.
        async with asyncio.timeout(OP_TIMEOUT_S):
            status, _ = await self._client.request(
                "POST", "/v1/postbox/check",
                {"owner": RECIPIENT, "x": 0.0, "y": 0.0, "now_s": 0.0},
            )
            if status != 200:
                raise RuntimeError(f"recipient registration answered {status}")
            self._stream = PushStreamClient(HOST, self.server.port, owner=RECIPIENT)
            await self._stream.connect()

    def _build_routing(self) -> None:
        """A pristine building graph, router and AP-side membership."""
        t0 = time.perf_counter()
        self.graph = BuildingGraph(
            self.city,
            transmission_range=PAPER_TRANSMISSION_RANGE,
            weight_exponent=3.0,
            ap_density=PAPER_AP_DENSITY,
        )
        t1 = time.perf_counter()
        if not self.mutates:
            attach_hierarchy(self.graph, seed=0).build_overlays()
        t2 = time.perf_counter()
        self.layer["buildgraph.build_s"] = t1 - t0
        self.layer["buildgraph.hierarchy_build_s"] = t2 - t1
        self.router = BuildingRouter(
            self.city, graph=self.graph, conduit_width=PAPER_CONDUIT_WIDTH
        )
        self.membership = ConduitMembership(self.city, graph=self.graph)
        self.planner = (
            self.graph.hierarchy if self.graph.hierarchy is not None else self.graph
        )

    @property
    def stats_client(self) -> ServiceClient:
        return self._client

    def dump_inputs(self) -> dict:
        self.build_world()
        return self.inputs(0)

    async def warmup(self) -> None:
        """One short round whose cost is charged to set-up."""
        full = self.sizes
        self.sizes = dataclasses.replace(
            full, flood_epochs=2, metro_msgs=max(2, full.metro_msgs // 5)
        )
        try:
            await self.round(workloads.WARMUP_INDEX, MeasuredClock(), traced=False, record=False)
        finally:
            self.sizes = full

    async def close(self) -> None:
        for conn in (self._stream, self._client):
            if conn is not None:
                await conn.close()
        self._stream = self._client = None
        if self.server is not None:
            self.server.stop()

    # ------------------------------------------------------------------
    # Inputs
    # ------------------------------------------------------------------
    def inputs(self, index: int) -> dict:
        if self.mutates:
            return workloads.flood_city_round(
                self.seed, index, self.sizes, self.bounds, self.candidates
            )
        return workloads.metro_far_round(
            self.seed, index, self.sizes, self.candidates, self.centroids, self.diagonal
        )

    def _kill_lists(self, epochs: list[dict]) -> list[tuple[list[int], frozenset[int], set[int]]]:
        """Per epoch: buildings to drop from routing, cumulative dead APs,
        and the APs still alive."""
        ids, cx, cy = self._ids, self._cx, self._cy
        gone = np.zeros(len(ids), dtype=bool)
        dead = np.zeros(len(self._ap_x), dtype=bool)
        out = []
        for epoch in epochs:
            x0, y0, x1, y1 = epoch["band"]
            hit_b = (cx >= x0) & (cx <= x1) & (cy >= y0) & (cy <= y1)
            hit_a = (
                (self._ap_x >= x0) & (self._ap_x <= x1)
                & (self._ap_y >= y0) & (self._ap_y <= y1)
            )
            for dx, dy, r in epoch["discs"]:
                hit_b |= (cx - dx) ** 2 + (cy - dy) ** 2 <= r * r
                hit_a |= (self._ap_x - dx) ** 2 + (self._ap_y - dy) ** 2 <= r * r
            removed = ids[hit_b & ~gone].tolist()
            gone |= hit_b
            dead |= hit_a
            out.append((
                removed,
                frozenset(np.flatnonzero(dead).tolist()),
                set(np.flatnonzero(~dead).tolist()),
            ))
        return out

    # ------------------------------------------------------------------
    # One round
    # ------------------------------------------------------------------
    async def round(self, index: int, clock: MeasuredClock, traced: bool,
                    record: bool = True) -> Block:
        inputs = self.inputs(index)
        tracer = self.tracer
        if self.mutates:
            self._build_routing()
            epochs = [
                (e["pairs"], *kills)
                for e, kills in zip(inputs["epochs"], self._kill_lists(inputs["epochs"]))
            ]
        else:
            epochs = [(inputs["pairs"], [], frozenset(), set())]
        stats0 = self.planner.stats()
        msgs: list[dict] = []
        islands_by_epoch = []

        tracer.enabled = traced
        clock.start()
        try:
            for pairs, removed, dead, alive in epochs:
                if self.mutates:
                    with tracer.span("buildgraph.patch"):
                        self.graph.patch(remove=removed)
                    with tracer.span("mesh.islands"):
                        islands = find_islands(self.mesh, min_size=1, alive=alive)
                    with tracer.span("sim.freeze"):
                        frozen_epoch(self.mesh, dead)
                    islands_by_epoch.append(islands)
                for s, d in pairs:
                    msg = await self._message(s, d, dead, traced)
                    msg["epoch"] = len(islands_by_epoch) - 1
                    msgs.append(msg)
        finally:
            timed_s = clock.stop()
            tracer.enabled = False

        block = Block(
            ops=len(msgs),
            done=sum(1 for m in msgs if m["outcome"] == "delivered"),
            timed_s=timed_s,
            latencies=[m["latency"] for m in msgs if m["outcome"] == "delivered"],
            traced=traced,
            errors=sum(1 for m in msgs if m["outcome"] == "error"),
        )
        if not record:
            return block
        self._tally(msgs, islands_by_epoch, stats0, traced)
        self._reference_check(msgs)
        if index == 0:
            self.round0 = {
                "inputs": config_hash(inputs),
                "delivered": block.done,
                "outcomes": config_hash([m["outcome"] for m in msgs]),
            }
        return block

    async def _message(self, s: int, d: int, dead: frozenset[int], traced: bool) -> dict:
        op = self._op
        self._op += 1
        tracer = self.tracer
        msg = {"op": op, "outcome": "error", "latency": 0.0}
        t0 = time.perf_counter()
        with tracer.span("message", op=op) as root:
            try:
                if traced:
                    # The search runs here, so core.plan below is a cache
                    # hit and holds compression + conduits + header only.
                    with tracer.span("buildgraph.route", root, op):
                        plan_building_route(self.planner, s, d)
                with tracer.span("core.plan", root, op):
                    plan = self.router.plan(s, d, message_id=op)
            except (NoRouteError, KeyError):
                msg["outcome"] = "no_route"
                return msg
            msg["plan_s"] = time.perf_counter() - t0
            msg["plan"] = plan
            source = next(
                (a for a in self.mesh.aps_in_building(s) if a not in dead), None
            )
            if source is None:
                msg["outcome"] = "no_source"
                return msg
            with tracer.span("sim.policy", root, op):
                policy = ConduitPolicy.from_header(self.membership, plan.header, self.city)
            flow_seed = seed_for(self.seed, op, self.name + ":flow")
            with tracer.span("sim.broadcast", root, op):
                result = simulate_broadcast_batch(
                    self.mesh,
                    [FlowSpec(source, d, policy, random.Random(flow_seed))],
                    dead_aps=dead,
                )[0]
            msg.update(source=source, dst=d, dead=dead, flow_seed=flow_seed, result=result)
            if not result.delivered:
                msg["outcome"] = "undelivered"
                return msg
            payload = _payload(plan.header_bytes, op)
            try:
                # One deadline over send -> push -> confirm: a hang in
                # any of the three becomes a counted error.
                async with asyncio.timeout(OP_TIMEOUT_S):
                    with tracer.span("service.send", root, op):
                        status, sent = await self._client.request(
                            "POST", "/v1/postbox/send",
                            {"owner": RECIPIENT, "payload": payload,
                             "urgent": True, "now_s": float(op + 1)},
                        )
                    if status != 200:
                        self.failures.append(f"op {op}: send answered {status}")
                        return msg
                    with tracer.span("service.push_wake", root, op):
                        push = await self._stream.next_push()
                    if push.get("msg_id") != sent["msg_id"] or push.get("payload") != payload:
                        self.failures.append(f"op {op}: push does not match its send")
                        return msg
                    with tracer.span("service.confirm", root, op):
                        confirmed = await self._stream.confirm(sent["msg_id"])
            except (TimeoutError, OSError, asyncio.IncompleteReadError) as exc:
                self.failures.append(f"op {op}: {type(exc).__name__}: {exc}")
                return msg
            if not confirmed:
                self.failures.append(f"op {op}: confirm refused")
                return msg
        msg["latency"] = time.perf_counter() - t0
        msg["outcome"] = "delivered"
        return msg

    # ------------------------------------------------------------------
    # After a round (clock paused)
    # ------------------------------------------------------------------
    def _tally(self, msgs: list[dict], islands_by_epoch: list, stats0: dict,
               traced: bool) -> None:
        self.attempted += len(msgs)
        for m in msgs:
            self.outcomes[m["outcome"]] = self.outcomes.get(m["outcome"], 0) + 1
            if m["outcome"] == "delivered":
                self.delivered += 1
            if "plan" in m:
                self.header_bits.append(m["plan"].header.total_bits())
                self.waypoints.append(len(m["plan"].waypoint_ids))
                (self.split_traced if traced else self.plan_untraced).append(m["plan_s"])
            if "result" in m:
                self.broadcasts += 1
                self.transmissions += m["result"].transmissions
                self.receptions += m["result"].receptions
            if m["outcome"] == "undelivered":
                islands = islands_by_epoch[m["epoch"]] if islands_by_epoch else []
                home = next((i for i in islands if m["source"] in i.ap_ids), None)
                reachable = home is None or any(
                    a in home.ap_ids for a in self.mesh.aps_in_building(m["dst"])
                )
                self.causes["mesh_loss" if reachable else "island_split"] += 1
        stats1 = self.planner.stats()
        self.nodes_expanded += int(stats1["nodes_expanded"] - stats0["nodes_expanded"])
        self.routes_planned += len(msgs)
        if not traced:
            # Traced rounds look every route up twice (the split above),
            # which would double the hits: count the plain rounds only.
            hits = stats1["route_cache_hits"] - stats0["route_cache_hits"]
            misses = stats1["route_cache_misses"] - stats0["route_cache_misses"]
            self.cache_hits += int(hits)
            self.cache_lookups += int(hits + misses)

    def _reference_check(self, msgs: list[dict]) -> None:
        """Every REFERENCE_EVERY-th message against the reference DES."""
        for m in msgs:
            if m["op"] % REFERENCE_EVERY[self.name] or "result" not in m:
                continue
            reference = simulate_broadcast(
                self.mesh,
                m["source"],
                m["dst"],
                ConduitPolicy(m["plan"].conduits, self.city),
                random.Random(m["flow_seed"]),
                dead_aps=m["dead"],
                fast=False,
            )
            self.reference_checked += 1
            got = m["result"]
            if (reference.delivered, reference.transmissions) != (
                got.delivered, got.transmissions
            ):
                self.failures.append(
                    f"op {m['op']}: reference DES says delivered="
                    f"{reference.delivered} tx={reference.transmissions}, "
                    f"batch said {got.delivered} tx={got.transmissions}"
                )

    async def finish(self) -> None:
        return None

    def delivery_ratio(self) -> float:
        return ratio(self.delivered, self.attempted)

    # ------------------------------------------------------------------
    # Per-layer table
    # ------------------------------------------------------------------
    async def per_layer(self) -> dict[str, float]:
        t = self.tracer
        self_s = t.self_times()
        total = sum(t.durations("message"))
        route = t.durations("buildgraph.route")
        plan = t.durations("core.plan")
        bcast = t.durations("sim.broadcast")
        wake = t.durations("service.push_wake")
        traced_rx = self.receptions * ratio(len(bcast), self.broadcasts)
        out = dict(self.layer)
        out.update({
            "buildgraph.route_p50_ms": p50_ms(route),
            "buildgraph.route_p95_ms": pq_ms(route, 0.95),
            "buildgraph.route_share": ratio(self_s.get("buildgraph.route", 0.0), total),
            "buildgraph.route_cache_hit_ratio": ratio(self.cache_hits, self.cache_lookups),
            "buildgraph.nodes_expanded_per_route": ratio(self.nodes_expanded, self.routes_planned),
            "buildgraph.no_route_ratio": ratio(self.outcomes["no_route"], self.attempted),
            "buildgraph.patch_p50_ms": p50_ms(t.durations("buildgraph.patch")),
            "core.plan_p50_ms": p50_ms(plan),
            "core.plan_share": ratio(self_s.get("core.plan", 0.0), total),
            "core.header_bits_p50": float(np.median(self.header_bits)) if self.header_bits else 0.0,
            "core.waypoints_p50": float(np.median(self.waypoints)) if self.waypoints else 0.0,
            "sim.policy_p50_ms": p50_ms(t.durations("sim.policy")),
            "sim.broadcast_p50_ms": p50_ms(bcast),
            "sim.broadcast_p95_ms": pq_ms(bcast, 0.95),
            "sim.broadcast_share": ratio(sum(self_s.get(n, 0.0) for n in _SIM_SPANS), total),
            "sim.tx_per_msg": ratio(self.transmissions, self.broadcasts),
            "sim.us_per_reception": ratio(sum(bcast) * 1e6, traced_rx),
            "sim.freeze_p50_ms": p50_ms(t.durations("sim.freeze")),
            "sim.undelivered_ratio": ratio(self.outcomes["undelivered"], self.broadcasts),
            "mesh.islands_p50_ms": p50_ms(t.durations("mesh.islands")),
            "service.send_p50_ms": p50_ms(t.durations("service.send")),
            "service.push_wake_p50_ms": p50_ms(wake),
            "service.push_wake_p95_ms": pq_ms(wake, 0.95),
            "service.confirm_p50_ms": p50_ms(t.durations("service.confirm")),
            "service.share": ratio(sum(self_s.get(n, 0.0) for n in _SERVICE_SPANS), total),
            "harness.self_share": ratio(self_s.get("message", 0.0), total),
            # Means, not medians: half the plans are cache hits and half
            # searches, and a median between two clusters is unsteady.
            "harness.decomposition_gap_pct": 100.0 * ratio(
                ratio(sum(self.split_traced), len(self.split_traced))
                - ratio(sum(self.plan_untraced), len(self.plan_untraced)),
                ratio(sum(self.plan_untraced), len(self.plan_untraced)),
            ),
        })
        return out
