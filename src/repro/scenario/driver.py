"""The scenario driver: step a world through a disaster timeline.

``_step`` runs five stages per epoch, each inside its own span under
``scenario.epoch``:

1. **events** (``scenario.events``) applies the events pinned to the
   epoch: outages start and end, damage lands, churn draws, operators
   deploy bridge APs.  The alive state is kept as per-AP arrays, and
   each outage's covered-AP mask is computed once, when it fires.
2. **patch** (``scenario.patch``) removes the epoch's damaged buildings
   and adds its bridge links in one :meth:`~repro.buildgraph.\
BuildingGraph.patch` call, so the graph version (and with it the route
   cache) moves at most once per epoch.
3. **replan** (``scenario.replan``) moves each mobile flow to its
   endpoints for the epoch and replans every flow whose route broke,
   moved or never existed: one
   :meth:`~repro.core.BuildingRouter.plan_batch` for the static flows,
   then one for the mobile flows.
4. **islands** (``scenario.islands``) derives the alive-AP mask and
   labels the alive mesh's islands with :func:`~repro.mesh.island_labels`.
5. **simulate** (``scenario.simulate``) scores each flow's
   reachability from the labels, then broadcasts every routable flow
   whose source building still has an alive AP (the first one sends).
   Each flow carries its plan's own conduits and its own
   :func:`~repro.experiments.seed_for` seed, and the epoch's flows run
   as one :func:`~repro.sim.simulate_broadcast_batch` call, or one
   :func:`~repro.sim.simulate_traffic_batch` call under a congestion
   window.  The dead APs reach the kernel as its ``dead_aps``, so no
   epoch rebuilds the mesh.

The stages report into one :class:`~repro.scenario.model.EpochReport`.
Everything runs in one process, epoch by epoch.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

import numpy as np

from ..core import RoutePlan
from ..experiments import TrialRunner, sample_building_pairs, seed_for
from ..geometry import Point, Polygon, contains_mask
from ..measurement import Trajectory, buildings_along, random_walk
from ..mesh import (
    AccessPoint,
    APGraph,
    assign_power_profiles,
    find_islands,
    island_labels,
    plan_bridge,
)
from ..obs import REGISTRY, RunManifest, span
from ..sim import (
    DEFAULT_TX_DELAY_S,
    ConduitPolicy,
    FlowSpec,
    simulate_broadcast_batch,
    simulate_traffic_batch,
)
from .events import APChurn, Damage, DeployBridges, GridOutage, PowerRestored
from .model import EpochReport, ScenarioResult, ScenarioSpec


@dataclass
class _Flow:
    """One row of the driver's flow table.

    ``pair`` is the (source, destination) building at the current
    epoch.  A static flow keeps it; a mobile flow reads it from
    ``tracks`` (its source and destination building per epoch).
    ``plan`` is the last route planned for ``pair`` and ``version`` the
    building-graph version it was last checked against; a ``None`` plan
    with a version set means the pair was unroutable at that version.
    ``stream`` is the flow's seed stream.
    """

    pair: tuple[int, int]
    stream: str
    tracks: tuple[list[int], list[int]] | None = None
    plan: RoutePlan | None = None
    version: int | None = None


class ScenarioDriver:
    """Step one :class:`~repro.scenario.model.ScenarioSpec` to its result.

    Args:
        spec: the timeline to run.
        runner: accepted for callers that hold a
            :class:`~repro.experiments.TrialRunner`; the driver runs
            every epoch in-process and never calls it.
    """

    def __init__(self, spec: ScenarioSpec, runner: TrialRunner | None = None):
        self.spec = spec
        self.world = spec.world.build()
        base_seed = spec.world.seed
        stream = spec.stream()
        # Construction randomness: every stream is keyed off the spec,
        # never off a shared sequential RNG.
        profiles = assign_power_profiles(
            self.world.graph.aps,
            random.Random(seed_for(base_seed, 0, stream + ":power")),
            battery_fraction=spec.battery_fraction,
            generator_fraction=spec.generator_fraction,
            battery_hours_range=spec.battery_hours_range,
        )
        # The flow table, in two parts that keep their own seed streams
        # and replan as two batches.  Mobile flows draw on streams of
        # their own, so the static flows draw what they always did.
        self._static = [
            _Flow(pair, stream + ":flow")
            for pair in sample_building_pairs(
                self.world,
                spec.flows,
                random.Random(seed_for(base_seed, 0, stream + ":pairs")),
            )
        ]
        self._mobile = [
            _Flow((src[0], dst[0]), stream + ":mobileflow", (src, dst))
            for src, dst in self._walk_mobile_tracks(base_seed, stream)
        ]
        # Timeline state, one array slot per AP of ``self.graph``.
        self.graph: APGraph = self.world.graph  # extended at deploys
        n = len(self.graph.aps)
        #: off-grid hours each AP runs (see PowerProfile.runtime_hours)
        self._runtime = np.array(
            [profiles[i].runtime_hours for i in range(n)], dtype=np.float64
        )
        self._destroyed = np.zeros(n, dtype=bool)
        self._churn_until = np.zeros(n, dtype=np.int64)  # recovery epoch
        # (region, start epoch, covered-AP mask) per active outage.
        self._outages: list[tuple[Polygon | None, int, np.ndarray]] = []
        #: wall-clock seconds per stepped epoch (filled by :meth:`run`);
        #: benchmark-only — never part of the deterministic result.
        self.epoch_wall_s: list[float] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        """Nothing to release; kept for the context-manager protocol."""

    def __enter__(self) -> "ScenarioDriver":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Mobility
    # ------------------------------------------------------------------
    def _walk_mobile_tracks(
        self, base_seed: int, stream: str
    ) -> list[tuple[list[int], list[int]]]:
        """Per-epoch (source, destination) building tracks per mobile flow.

        Each mobile flow gets two independent seeded random walks in
        the city's bounding box; :func:`~repro.measurement.\
buildings_along` stretches each walk over the timeline and snaps every
        epoch position to the nearest AP-bearing building.  Epochs
        where both walkers land in the same building shift the
        destination to its next-nearest distinct candidate, so a
        mobile flow always exercises the mesh.
        """
        spec = self.spec
        if spec.mobile_flows == 0:
            return []
        city = self.world.city
        ap_buildings = sorted(
            {ap.building_id for ap in self.world.graph.aps}
        )
        if len(ap_buildings) < 2:
            raise ValueError(
                "mobile flows need at least two AP-bearing buildings"
            )
        centroids = [(b, city.building(b).centroid()) for b in ap_buildings]
        min_x, min_y, max_x, max_y = city.bounds()
        extent = max(max_x - min_x, max_y - min_y)
        margin = min(100.0, extent * 0.25)
        tracks: list[tuple[list[int], list[int]]] = []
        for j in range(spec.mobile_flows):
            rng = random.Random(
                seed_for(base_seed, j, stream + ":mobility")
            )
            walks: list[Trajectory] = []
            for _ in range(2):
                # random_walk confines to [0, extent]^2; walk in local
                # coordinates and translate back to the city frame.
                start = Point(
                    rng.uniform(margin, extent - margin),
                    rng.uniform(margin, extent - margin),
                )
                walk = random_walk(start, extent, legs=6, rng=rng)
                walks.append(
                    Trajectory(
                        tuple(
                            Point(p.x + min_x, p.y + min_y)
                            for p in walk.waypoints
                        ),
                        walk.speed_mps,
                    )
                )
            src_walk, dst_walk = walks
            src_track = buildings_along(
                src_walk, city, spec.epochs, candidates=ap_buildings
            )
            dst_track = buildings_along(
                dst_walk, city, spec.epochs, candidates=ap_buildings
            )
            dst_positions = dst_walk.epoch_positions(spec.epochs)
            for e in range(spec.epochs):
                if dst_track[e] != src_track[e]:
                    continue
                p = dst_positions[e]
                alt, _c = min(
                    (
                        (b, c)
                        for b, c in centroids
                        if b != src_track[e]
                    ),
                    key=lambda item: (item[1].distance_to(p), item[0]),
                )
                dst_track[e] = alt
            tracks.append((src_track, dst_track))
        return tracks

    # ------------------------------------------------------------------
    # Alive-state derivation
    # ------------------------------------------------------------------
    @staticmethod
    def _coverage(
        region: Polygon | None, px: np.ndarray, py: np.ndarray
    ) -> np.ndarray:
        """Which of these AP positions an outage region covers (all if None)."""
        if region is None:
            return np.ones(len(px), dtype=bool)
        return contains_mask(region, px, py)

    def _alive_mask(self, epoch: int) -> np.ndarray:
        """Alive APs at the given epoch under all current state."""
        hour = epoch * self.spec.epoch_hours
        alive = ~self._destroyed & (self._churn_until <= epoch)
        if self._outages:
            # Longest-running outage covering each AP (power does not
            # stack: what matters is how long this AP has been
            # off-grid); -1 marks an AP no outage covers.
            elapsed = np.full(len(alive), -1.0)
            for _region, start_epoch, covered in self._outages:
                hours_out = hour - start_epoch * self.spec.epoch_hours
                np.maximum(elapsed, np.where(covered, hours_out, -1.0), out=elapsed)
            # PowerProfile.alive_at: t == 0.0 or t < runtime; an
            # uncovered AP (t = -1) passes either clause.
            alive &= (elapsed <= 0.0) | (elapsed < self._runtime)
        return alive

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def _apply_outage(self, ev: GridOutage, epoch: int) -> None:
        """Start an outage; which APs it covers is settled here, once."""
        covered = self._coverage(ev.region, *self.graph.position_arrays())
        self._outages.append((ev.region, epoch, covered))

    def _apply_restore(self, ev: PowerRestored) -> None:
        """End the outages over the event's region (every one if None)."""
        self._outages = [
            outage
            for outage in self._outages
            if ev.region is not None and outage[0] != ev.region
        ]

    def _apply_damage(self, ev: Damage) -> list[int]:
        """Kill covered APs; return building ids to drop from routing."""
        self._destroyed |= contains_mask(ev.area, *self.graph.position_arrays())
        bg = self.world.building_graph
        ids = list(bg)
        centroids = [bg.centroid(b) for b in ids]
        hit = contains_mask(
            ev.area,
            np.fromiter((c.x for c in centroids), dtype=np.float64, count=len(ids)),
            np.fromiter((c.y for c in centroids), dtype=np.float64, count=len(ids)),
        )
        return [b for b, h in zip(ids, hit.tolist()) if h]

    def _apply_churn(self, ev: APChurn, epoch: int) -> None:
        eligible = np.flatnonzero(
            ~self._destroyed & (self._churn_until <= epoch)
        ).tolist()
        count = int(ev.rate * len(eligible))
        if count == 0:
            return
        rng = random.Random(
            seed_for(self.spec.world.seed, epoch, self.spec.stream() + ":churn")
        )
        self._churn_until[rng.sample(eligible, count)] = epoch + ev.down_epochs

    def _apply_bridges(
        self, ev: DeployBridges, epoch: int
    ) -> tuple[int, list[tuple[int, int]]]:
        """Bridge the currently-alive islands; extend mesh and state.

        Returns the number of APs deployed and the routing links to
        announce (anchor-building pairs, one per bridged island).
        """
        alive = np.flatnonzero(self._alive_mask(epoch)).tolist()
        islands = find_islands(
            self.graph, min_size=ev.min_island_size, alive=alive
        )
        if len(islands) <= 1:
            return 0, []
        main = islands[0]
        new_aps: list[AccessPoint] = []
        links: list[tuple[int, int]] = []
        bg = self.world.building_graph
        next_id = len(self.graph.aps)
        for island in islands[1:]:
            plan = plan_bridge(
                self.graph, main, island, spacing_factor=ev.spacing_factor
            )
            anchor = self.graph.aps[plan.from_ap].building_id
            far_anchor = self.graph.aps[plan.to_ap].building_id
            for pos in plan.new_positions:
                new_aps.append(
                    AccessPoint(id=next_id, position=pos, building_id=anchor)
                )
                next_id += 1
            if (
                anchor != far_anchor
                and anchor in bg
                and far_anchor in bg
            ):
                links.append((anchor, far_anchor))
        if new_aps:
            # Deployed ids continue the mesh's contiguous ids; the
            # extension patches only the affected adjacency lists and is
            # byte-identical to a full rebuild, neighbour order included.
            self.graph = self.graph.with_added_aps(new_aps)
            self._extend_state(new_aps)
        return len(new_aps), links

    def _extend_state(self, new_aps: list[AccessPoint]) -> None:
        """Give freshly deployed APs their slots in every state array.

        They are operator-maintained (generator-backed, so outage-proof),
        intact and not churned; each active outage's mask grows by
        whether its region covers them.
        """
        k = len(new_aps)
        px = np.array([ap.position.x for ap in new_aps], dtype=np.float64)
        py = np.array([ap.position.y for ap in new_aps], dtype=np.float64)
        self._runtime = np.concatenate((self._runtime, np.full(k, np.inf)))
        self._destroyed = np.concatenate((self._destroyed, np.zeros(k, dtype=bool)))
        self._churn_until = np.concatenate(
            (self._churn_until, np.zeros(k, dtype=np.int64))
        )
        self._outages = [
            (region, start, np.concatenate((covered, self._coverage(region, px, py))))
            for region, start, covered in self._outages
        ]

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _refresh_plans(self, table: list[_Flow], epoch: int) -> int:
        """Move one table's flows to this epoch and replan the broken.

        A sender replans lazily: only when it has no valid route yet
        (initial epoch, or it was unroutable and the map changed — a
        bridge may have appeared), when any building of its cached
        route vanished from the map, or when a mobile flow's walker
        moved to another building (its old plan no longer starts or
        ends where it stands).  Validation runs over the full
        uncompressed route, not just the waypoints: a compressed
        two-waypoint header can span destroyed intermediates whose
        conduit now crosses a dead zone.  A surviving route is kept
        even if a newer map version might offer a better one.

        All stale flows replan through one
        :meth:`~repro.core.BuildingRouter.plan_batch` call, which runs
        a single Dijkstra tree per distinct source.  Unroutable flows
        count as replans too: they cost planner work.
        """
        bg = self.world.building_graph
        version = bg.version
        stale: list[_Flow] = []
        for flow in table:
            if flow.tracks is not None:
                pair = (flow.tracks[0][epoch], flow.tracks[1][epoch])
                if pair != flow.pair:
                    flow.pair, flow.plan, flow.version = pair, None, None
            if flow.version == version:
                continue
            if flow.plan is not None and all(b in bg for b in flow.plan.route):
                flow.version = version
                continue
            stale.append(flow)
        if not stale:
            return 0
        planned = self.world.router.plan_batch([flow.pair for flow in stale])
        for flow in stale:
            flow.plan = planned.get(flow.pair)
            flow.version = version
        return len(stale)

    # ------------------------------------------------------------------
    # Stages
    # ------------------------------------------------------------------
    def _events(
        self, epoch: int
    ) -> tuple[list[str], list[int], list[tuple[int, int]], int]:
        """Apply this epoch's events.

        Returns the fired events' descriptions, the buildings to remove
        from routing, the bridge links to announce and the number of
        APs deployed.
        """
        fired: list[str] = []
        removals: list[int] = []
        links: list[tuple[int, int]] = []
        deployed = 0
        with span("scenario.events", epoch=epoch):
            for ev in self.spec.events:
                if isinstance(ev, APChurn):
                    # Windows fire every epoch they span, not at start.
                    if ev.epoch <= epoch <= ev.until_epoch:
                        self._apply_churn(ev, epoch)
                        fired.append(ev.describe())
                    continue
                if ev.epoch != epoch:
                    continue
                fired.append(ev.describe())
                if isinstance(ev, GridOutage):
                    self._apply_outage(ev, epoch)
                elif isinstance(ev, PowerRestored):
                    self._apply_restore(ev)
                elif isinstance(ev, Damage):
                    removals.extend(self._apply_damage(ev))
                elif isinstance(ev, DeployBridges):
                    count, new_links = self._apply_bridges(ev, epoch)
                    deployed += count
                    links.extend(new_links)
        return fired, removals, links, deployed

    def _patch(
        self, epoch: int, removals: list[int], links: list[tuple[int, int]]
    ) -> bool:
        """Apply the epoch's map changes in one patch; True if it mutated.

        Events are gathered one by one but patched together: two damage
        areas may cover the same building, and a bridge may anchor on a
        building this very epoch's damage removes.
        """
        removals = list(dict.fromkeys(removals))
        gone = set(removals)
        links = [(a, b) for a, b in links if a not in gone and b not in gone]
        with span("scenario.patch", epoch=epoch):
            return self.world.building_graph.patch(remove=removals, add_links=links)

    def _replan(self, epoch: int) -> int:
        """Refresh the static flows' plans, then the mobile flows'."""
        with span("scenario.replan", epoch=epoch):
            return self._refresh_plans(self._static, epoch) + self._refresh_plans(
                self._mobile, epoch
            )

    def _islands(self, epoch: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The alive-AP mask, and the island label per AP and island sizes."""
        with span("scenario.islands", epoch=epoch):
            alive = self._alive_mask(epoch)
            labels, sizes = island_labels(self.graph, alive)
        REGISTRY.gauge("scenario.alive_aps").set(int(np.count_nonzero(alive)))
        return alive, labels, sizes

    def _simulate(
        self, epoch: int, alive: np.ndarray, labels: np.ndarray
    ) -> tuple[int, int, int, int, int]:
        """Score and broadcast every flow.

        Returns the routable, reachable, simulated and delivered flow
        counts and the transmissions spent.  A flow is reachable when
        an alive AP of its source building shares an island with one of
        its destination building.  It is simulated when it has a plan
        and its source building an alive AP, the first of which sends.
        """
        spec = self.spec
        routable = reachable = 0
        sends: list[tuple[RoutePlan, int, int, int]] = []  # plan, dst, AP, seed
        for table in (self._static, self._mobile):
            for i, flow in enumerate(table):
                src, dst = flow.pair
                src_alive = [a for a in self.graph.aps_in_building(src) if alive[a]]
                dst_islands = {
                    int(labels[a]) for a in self.graph.aps_in_building(dst) if alive[a]
                }
                if any(int(labels[a]) in dst_islands for a in src_alive):
                    reachable += 1
                if flow.plan is None:
                    continue
                routable += 1
                if src_alive:
                    seed = seed_for(
                        spec.world.seed, epoch * len(table) + i, flow.stream
                    )
                    sends.append((flow.plan, dst, src_alive[0], seed))
        with span("scenario.simulate", epoch=epoch, flows=len(sends)):
            outcomes = self._broadcast(epoch, alive, sends) if sends else []
        delivered = sum(1 for ok, _tx in outcomes if ok)
        transmissions = sum(tx for _ok, tx in outcomes)
        return routable, reachable, len(sends), delivered, transmissions

    def _broadcast(
        self,
        epoch: int,
        alive: np.ndarray,
        sends: list[tuple[RoutePlan, int, int, int]],
    ) -> list[tuple[bool, int]]:
        """(delivered, transmissions) per send, in order.

        In private air each flow's result depends only on its own seed.
        With a congestion window the flows share the air: each is
        injected at an instant drawn from its own seed, and the
        collision jitter comes from the epoch's congestion stream.
        """
        spec = self.spec
        city = self.world.city
        flows = [
            FlowSpec(
                source_ap=source_ap,
                dest_building=dst,
                policy=ConduitPolicy(plan.conduits, city),
                rng=random.Random(seed),
            )
            for plan, dst, source_ap, seed in sends
        ]
        dead = frozenset(np.flatnonzero(~alive).tolist())
        congestion = spec.congestion
        if congestion is None:
            results = simulate_broadcast_batch(self.graph, flows, dead_aps=dead)
            return [(r.delivered, r.transmissions) for r in results]
        window = congestion.window_s
        start_times = [
            random.Random(seed).uniform(0.0, window) if window > 0 else 0.0
            for *_rest, seed in sends
        ]
        frame = congestion.frame_time_s
        outcomes = simulate_traffic_batch(
            self.graph,
            flows,
            start_times,
            random.Random(seed_for(spec.world.seed, epoch, spec.stream() + ":congestion")),
            frame_time_s=frame if frame is not None else DEFAULT_TX_DELAY_S,
            dead_aps=dead,
        )
        return [(o.delivered, o.transmissions) for o in outcomes]

    def _step(self, epoch: int) -> EpochReport:
        spec = self.spec
        bg = self.world.building_graph
        before = bg.stats()
        fired, removals, links, deployed = self._events(epoch)
        mutated = self._patch(epoch, removals, links)
        replans = self._replan(epoch)
        alive, labels, sizes = self._islands(epoch)
        routable, reachable, simulated, delivered, transmissions = self._simulate(
            epoch, alive, labels
        )
        after = bg.stats()
        flows = len(self._static) + len(self._mobile)
        return EpochReport(
            epoch=epoch,
            hour=epoch * spec.epoch_hours,
            events=tuple(fired),
            alive_aps=int(np.count_nonzero(alive)),
            total_aps=len(self.graph.aps),
            islands=int(np.count_nonzero(sizes >= spec.min_island_size)),
            largest_island=int(sizes.max()) if sizes.size else 0,
            graph_version=bg.version,
            mutated=mutated,
            deployed_aps=deployed,
            replans=replans,
            flows=flows,
            routable_flows=routable,
            reachable_flows=reachable,
            simulated_flows=simulated,
            delivered_flows=delivered,
            delivery_rate=delivered / flows,
            transmissions=transmissions,
            route_cache_hits=int(after["route_cache_hits"] - before["route_cache_hits"]),
            route_cache_misses=int(
                after["route_cache_misses"] - before["route_cache_misses"]
            ),
        )

    def run(self) -> ScenarioResult:
        """Step the full timeline and aggregate the reports.

        The result carries a :class:`~repro.obs.RunManifest` (git SHA,
        config hash of the spec's stream, seed, wall/CPU/RSS cost) —
        the only non-deterministic block in its JSON.
        """
        manifest = RunManifest.begin(
            config=self.spec.stream(), seed=self.spec.world.seed
        )
        reports: list[EpochReport] = []
        self.epoch_wall_s = []
        with span("scenario.run", scenario=self.spec.name):
            for e in range(self.spec.epochs):
                with span("scenario.epoch", epoch=e):
                    t0 = time.perf_counter()
                    reports.append(self._step(e))
                    # Wall-clock per epoch, for benchmark percentiles.
                    # Kept on the driver, NOT in the result: the
                    # ScenarioResult JSON stays deterministic.
                    self.epoch_wall_s.append(time.perf_counter() - t0)
        return ScenarioResult(
            name=self.spec.name,
            city=self.spec.world.city_name,
            seed=self.spec.world.seed,
            epoch_hours=self.spec.epoch_hours,
            flow_count=len(self._static) + len(self._mobile),
            initial_aps=len(self.world.graph.aps),
            epochs=tuple(reports),
            manifest=manifest.finish().to_dict(),
        )


def run_scenario(spec: ScenarioSpec) -> ScenarioResult:
    """Convenience wrapper: drive a spec to its result."""
    with ScenarioDriver(spec) as driver:
        return driver.run()
