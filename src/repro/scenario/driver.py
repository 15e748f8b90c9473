"""The scenario driver: step a world through a disaster timeline.

Per epoch the driver

1. applies the events pinned to that epoch (outages start/end, damage
   lands, churn draws, operators deploy bridge APs),
2. derives the alive-AP set from power profiles, destruction, and
   churn — against the *original* mesh, via the ``dead_aps`` argument
   of :func:`~repro.sim.simulate_broadcast_batch` and the ``alive=`` path of
   :func:`~repro.mesh.find_islands`, so no per-epoch graph rebuilds,
3. patches the building graph in one :meth:`~repro.buildgraph.\
BuildingGraph.patch` call (exactly one version bump per mutating
   epoch, so the route cache invalidates once, not per casualty),
4. replans flows whose routes broke (or that never had one), fails the
   source AP over to the building's first alive AP, and
5. scores every flow end to end — reachability through the alive mesh
   and actual delivery via the broadcast simulator — into an
   :class:`~repro.scenario.model.EpochReport`.

Everything runs in one process, epoch by epoch.  An epoch's flows go
to the :class:`~repro.experiments.TrialRunner` as one
:class:`ScenarioEpochBatch`: the epoch's mesh (the world's mesh plus
every bridge AP deployed so far), its dead set, and per flow the
waypoints and its own :func:`~repro.experiments.seed_for` seed, so a
flow's result does not depend on the flows beside it.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass

from ..core import RoutePlan, conduits_for_waypoints
from ..experiments import (
    TrialRunner,
    World,
    sample_building_pairs,
    seed_for,
)
from ..geometry import Point, Polygon
from ..measurement import Trajectory, buildings_along, random_walk
from ..mesh import (
    AccessPoint,
    APGraph,
    PowerProfile,
    PowerSource,
    assign_power_profiles,
    find_islands,
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

@dataclass(frozen=True)
class ScenarioFlowTrial:
    """One flow's broadcast simulation at one epoch.

    The waypoints are the flow's compressed route header; conduits are
    rebuilt from the shared map, exactly as a real AP would.
    """

    src_building: int
    dst_building: int
    source_ap: int
    waypoint_ids: tuple[int, ...]
    conduit_width: float
    seed: int


@dataclass(frozen=True)
class ScenarioEpochBatch:
    """All of one epoch's flow trials, run as a single work item.

    Every trial of an epoch shares the mesh and the dead set, so
    running them together freezes the world (CSR adjacency, dead mask,
    conduit verdict bitmaps) exactly once per epoch instead of once per
    flow.  ``graph`` is the driver's mesh at this epoch: the world's
    mesh extended with every bridge AP deployed so far.

    When ``congestion_window_s`` is set the epoch's flows share the
    air: every trial is injected within that many seconds (its start
    drawn from its own trial seed) and the whole batch runs through
    :func:`~repro.sim.simulate_traffic_batch` under the
    overlap-collision MAC, so a saturating window degrades delivery.
    ``None`` (the default) keeps the private-air broadcast per flow —
    byte-identical to the pre-congestion driver.
    """

    graph: APGraph
    dead_aps: frozenset[int]
    trials: tuple[ScenarioFlowTrial, ...]
    congestion_window_s: float | None = None
    congestion_frame_s: float | None = None
    congestion_seed: int = 0


def scenario_epoch_batch(
    world: World, batch: ScenarioEpochBatch
) -> list[tuple[bool, int]]:
    """Run an epoch's flows through one frozen world.

    Per-flow results are byte-identical to one
    :func:`~repro.sim.simulate_broadcast` call per trial — the batch
    only shares frozen state, never RNG streams (each trial still seeds
    its own generator).  With a congestion window set, flows instead
    contend for the shared channel (see :class:`ScenarioEpochBatch`).
    """
    if not batch.trials:
        return []
    graph = batch.graph
    flows = []
    for trial in batch.trials:
        centroids = [
            world.city.building(b).centroid() for b in trial.waypoint_ids
        ]
        conduits = conduits_for_waypoints(centroids, trial.conduit_width)
        flows.append(
            FlowSpec(
                source_ap=trial.source_ap,
                dest_building=trial.dst_building,
                policy=ConduitPolicy(conduits, world.city),
                rng=random.Random(trial.seed),
            )
        )
    if batch.congestion_window_s is not None:
        window = batch.congestion_window_s
        # Each flow's injection instant comes from its own trial seed
        # (stable whatever the batch order); the collision-jitter RNG
        # is the epoch's dedicated congestion stream.
        start_times = [
            random.Random(trial.seed).uniform(0.0, window) if window > 0 else 0.0
            for trial in batch.trials
        ]
        frame = (
            batch.congestion_frame_s
            if batch.congestion_frame_s is not None
            else DEFAULT_TX_DELAY_S
        )
        outcomes = simulate_traffic_batch(
            graph,
            flows,
            start_times,
            random.Random(batch.congestion_seed),
            frame_time_s=frame,
            dead_aps=batch.dead_aps,
        )
        return [(o.delivered, o.transmissions) for o in outcomes]
    results = simulate_broadcast_batch(graph, flows, dead_aps=batch.dead_aps)
    return [(r.delivered, r.transmissions) for r in results]


class ScenarioDriver:
    """Step one :class:`~repro.scenario.model.ScenarioSpec` to its result.

    Args:
        spec: the timeline to run.
        runner: trial runner for the per-epoch broadcast batch; one is
            created (and owned) when omitted.
        world: a prebuilt world to drive instead of building
            ``spec.world`` — for worlds with no preset (benchmarks,
            OSM imports); ``spec.world`` then only labels seeds.
    """

    def __init__(
        self,
        spec: ScenarioSpec,
        runner: TrialRunner | None = None,
        world: World | None = None,
    ):
        self.spec = spec
        self._runner = runner if runner is not None else TrialRunner(workers=1)
        self._owns_runner = runner is None
        self.world = world if world is not None else spec.world.build()
        base_seed = spec.world.seed
        stream = spec.stream()
        self._flow_stream = stream + ":flow"
        # Construction randomness: every stream is keyed off the spec,
        # never off a shared sequential RNG.
        self.profiles: dict[int, PowerProfile] = assign_power_profiles(
            self.world.graph.aps,
            random.Random(seed_for(base_seed, 0, stream + ":power")),
            battery_fraction=spec.battery_fraction,
            generator_fraction=spec.generator_fraction,
            battery_hours_range=spec.battery_hours_range,
        )
        self.flows: list[tuple[int, int]] = sample_building_pairs(
            self.world,
            spec.flows,
            random.Random(seed_for(base_seed, 0, stream + ":pairs")),
        )
        # Mobile flows: each gets two seeded walkers (source and
        # destination) whose trajectories stretch over the timeline;
        # per-epoch positions snap to AP-bearing buildings.  Their
        # randomness lives on dedicated streams so the static flows
        # above draw exactly what they always did.
        self._mobile_flow_stream = stream + ":mobileflow"
        self._mobile_tracks: list[tuple[list[int], list[int]]] = (
            self._walk_mobile_tracks(base_seed, stream)
        )
        self._mobile_pairs: list[tuple[int, int] | None] = [None] * len(
            self._mobile_tracks
        )
        self._mobile_plans: list[RoutePlan | None] = [None] * len(
            self._mobile_tracks
        )
        self._mobile_versions: list[int | None] = [None] * len(
            self._mobile_tracks
        )
        # Timeline state.
        self.graph: APGraph = self.world.graph  # extended at deploys
        self._destroyed: set[int] = set()
        self._churn_until: dict[int, int] = {}  # ap id -> recovery epoch
        self._outages: list[tuple[Polygon | None, int]] = []  # (region, epoch)
        self._churn_windows: list[APChurn] = [
            ev for ev in spec.events if isinstance(ev, APChurn)
        ]
        # Flow routing state: last plan + the graph version it was
        # validated against (None plan = known-unroutable then).
        self._plans: list[RoutePlan | None] = [None] * len(self.flows)
        self._plan_versions: list[int | None] = [None] * len(self.flows)
        #: wall-clock seconds per stepped epoch (filled by :meth:`run`);
        #: benchmark-only — never part of the deterministic result.
        self.epoch_wall_s: list[float] = []

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def close(self) -> None:
        if self._owns_runner:
            self._runner.close()

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
    # Alive-set derivation
    # ------------------------------------------------------------------
    def _covered(self, region: Polygon | None) -> list[int]:
        """AP ids whose position an outage region covers (all if None)."""
        if region is None:
            return list(range(len(self.graph.aps)))
        return [
            ap.id for ap in self.graph.aps if region.contains(ap.position)
        ]

    def _alive_set(self, epoch: int) -> set[int]:
        """Alive AP ids at the given epoch under all current state."""
        hour = epoch * self.spec.epoch_hours
        n = len(self.graph.aps)
        # Longest-running outage covering each AP (power does not
        # stack: what matters is how long this AP has been off-grid).
        elapsed: dict[int, float] = {}
        for region, start_epoch in self._outages:
            hours_out = hour - start_epoch * self.spec.epoch_hours
            for ap_id in self._covered(region):
                if elapsed.get(ap_id, -1.0) < hours_out:
                    elapsed[ap_id] = hours_out
        alive: set[int] = set()
        for ap_id in range(n):
            if ap_id in self._destroyed:
                continue
            if self._churn_until.get(ap_id, 0) > epoch:
                continue
            hours_out = elapsed.get(ap_id)
            if hours_out is not None and not self.profiles[ap_id].alive_at(
                hours_out
            ):
                continue
            alive.add(ap_id)
        return alive

    # ------------------------------------------------------------------
    # Event application
    # ------------------------------------------------------------------
    def _apply_damage(self, ev: Damage) -> list[int]:
        """Kill covered APs; return building ids to drop from routing."""
        for ap in self.graph.aps:
            if ap.id not in self._destroyed and ev.area.contains(ap.position):
                self._destroyed.add(ap.id)
        bg = self.world.building_graph
        return [b for b in list(bg) if ev.area.contains(bg.centroid(b))]

    def _apply_churn(self, ev: APChurn, epoch: int) -> None:
        eligible = [
            ap.id
            for ap in self.graph.aps
            if ap.id not in self._destroyed
            and self._churn_until.get(ap.id, 0) <= epoch
        ]
        count = int(ev.rate * len(eligible))
        if count == 0:
            return
        rng = random.Random(
            seed_for(self.spec.world.seed, epoch, self.spec.stream() + ":churn")
        )
        for ap_id in rng.sample(eligible, count):
            self._churn_until[ap_id] = epoch + ev.down_epochs

    def _apply_bridges(
        self, ev: DeployBridges, epoch: int
    ) -> tuple[int, list[tuple[int, int]]]:
        """Bridge the currently-alive islands; extend mesh and profiles.

        Returns the number of APs deployed and the routing links to
        announce (anchor-building pairs, one per bridged island).
        """
        alive = self._alive_set(epoch)
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
            for ap in new_aps:
                # Operator-maintained: generator-backed, outage-proof.
                self.profiles[ap.id] = PowerProfile(PowerSource.GENERATOR)
        return len(new_aps), links

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _refresh_plans(self) -> int:
        """Replan flows whose last route broke; returns the replan count.

        A sender replans lazily: only when it has no valid route yet
        (initial epoch, or it was unroutable and the map changed — a
        bridge may have appeared) or when any building of its cached
        route vanished from the map.  Validation runs over the full
        uncompressed route, not just the waypoints: a compressed
        two-waypoint header can span destroyed intermediates whose
        conduit now crosses a dead zone.  A surviving route is kept
        even if a newer map version might offer a better one.

        All stale flows replan through one
        :meth:`~repro.core.BuildingRouter.plan_batch` call, which runs
        a single Dijkstra tree per distinct source instead of one
        point-to-point search per flow.  Unroutable flows stay counted
        as replan *attempts* (they consumed planner work), matching the
        old per-flow accounting.
        """
        bg = self.world.building_graph
        version = bg.version
        stale: list[int] = []
        for i, (src, dst) in enumerate(self.flows):
            if self._plan_versions[i] == version:
                continue
            plan = self._plans[i]
            if plan is not None and all(b in bg for b in plan.route):
                self._plan_versions[i] = version
                continue
            stale.append(i)
        if not stale:
            return 0
        planned = self.world.router.plan_batch([self.flows[i] for i in stale])
        for i in stale:
            self._plans[i] = planned.get(self.flows[i])
            self._plan_versions[i] = version
        return len(stale)

    def _refresh_mobile_plans(self, epoch: int) -> int:
        """Advance mobile endpoints to this epoch and replan the broken.

        Same lazy discipline as :meth:`_refresh_plans`, with one extra
        invalidation source: a walker that moved to a different
        building drops its cached route (its old plan no longer starts
        or ends where it stands).  Unroutable pairs still count as
        replan attempts.
        """
        if not self._mobile_tracks:
            return 0
        bg = self.world.building_graph
        version = bg.version
        stale: list[int] = []
        for j, (src_track, dst_track) in enumerate(self._mobile_tracks):
            pair = (src_track[epoch], dst_track[epoch])
            if pair != self._mobile_pairs[j]:
                self._mobile_pairs[j] = pair
                self._mobile_plans[j] = None
                self._mobile_versions[j] = None
            if self._mobile_versions[j] == version:
                continue
            plan = self._mobile_plans[j]
            if plan is not None and all(b in bg for b in plan.route):
                self._mobile_versions[j] = version
                continue
            stale.append(j)
        if not stale:
            return 0
        planned = self.world.router.plan_batch(
            [self._mobile_pairs[j] for j in stale]
        )
        for j in stale:
            self._mobile_plans[j] = planned.get(self._mobile_pairs[j])
            self._mobile_versions[j] = version
        return len(stale)

    # ------------------------------------------------------------------
    # Stepping
    # ------------------------------------------------------------------
    def _step(self, epoch: int) -> EpochReport:
        spec = self.spec
        bg = self.world.building_graph
        before = bg.stats()
        fired: list[str] = []
        removals: list[int] = []
        links: list[tuple[int, int]] = []
        deployed_now = 0
        with span("scenario.events", epoch=epoch):
            for ev in spec.events:
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
                    self._outages.append((ev.region, epoch))
                elif isinstance(ev, PowerRestored):
                    self._outages = [
                        (region, start)
                        for region, start in self._outages
                        if ev.region is not None and region != ev.region
                    ]
                elif isinstance(ev, Damage):
                    removals.extend(self._apply_damage(ev))
                elif isinstance(ev, DeployBridges):
                    count, new_links = self._apply_bridges(ev, epoch)
                    deployed_now += count
                    links.extend(new_links)
        # Events are gathered one by one but patched together: two damage
        # areas may cover the same building, and a bridge may anchor on
        # a building this very epoch's damage removes.
        removals = list(dict.fromkeys(removals))
        gone = set(removals)
        links = [(a, b) for a, b in links if a not in gone and b not in gone]
        with span("scenario.patch", epoch=epoch):
            mutated = bg.patch(remove=removals, add_links=links)
        with span("scenario.replan", epoch=epoch):
            replans = self._refresh_plans() + self._refresh_mobile_plans(
                epoch
            )

        with span("scenario.islands", epoch=epoch):
            alive = self._alive_set(epoch)
            islands = find_islands(self.graph, min_size=1, alive=alive)
        REGISTRY.gauge("scenario.alive_aps").set(len(alive))
        island_of: dict[int, int] = {}
        for idx, island in enumerate(islands):
            for ap_id in island.ap_ids:
                island_of[ap_id] = idx

        dead = (
            frozenset(range(len(self.graph.aps))) - alive
            if len(alive) < len(self.graph.aps)
            else frozenset()
        )
        trials: list[ScenarioFlowTrial] = []
        routable = 0
        reachable = 0

        def score_flow(
            src: int, dst: int, plan: RoutePlan | None, seed: int
        ) -> None:
            nonlocal routable, reachable
            if plan is not None:
                routable += 1
            src_alive = [
                a for a in self.graph.aps_in_building(src) if a in alive
            ]
            dst_islands = {
                island_of[a]
                for a in self.graph.aps_in_building(dst)
                if a in alive
            }
            flow_reachable = any(
                island_of[a] in dst_islands for a in src_alive
            )
            if flow_reachable:
                reachable += 1
            if plan is None or not src_alive:
                return
            # Source failover: the building's first alive AP sends.
            trials.append(
                ScenarioFlowTrial(
                    src_building=src,
                    dst_building=dst,
                    source_ap=src_alive[0],
                    waypoint_ids=plan.waypoint_ids,
                    conduit_width=spec.world.conduit_width,
                    seed=seed,
                )
            )

        for i, (src, dst) in enumerate(self.flows):
            score_flow(
                src,
                dst,
                self._plans[i],
                seed_for(
                    spec.world.seed,
                    epoch * len(self.flows) + i,
                    self._flow_stream,
                ),
            )
        for j, pair in enumerate(self._mobile_pairs):
            assert pair is not None  # set by _refresh_mobile_plans
            score_flow(
                pair[0],
                pair[1],
                self._mobile_plans[j],
                seed_for(
                    spec.world.seed,
                    epoch * len(self._mobile_pairs) + j,
                    self._mobile_flow_stream,
                ),
            )

        # The epoch's flows run as ONE batch item so the world is
        # frozen (CSR, dead mask, verdict bitmaps) once.
        if spec.congestion is not None:
            batch = ScenarioEpochBatch(
                graph=self.graph,
                dead_aps=dead,
                trials=tuple(trials),
                congestion_window_s=spec.congestion.window_s,
                congestion_frame_s=spec.congestion.frame_time_s,
                congestion_seed=seed_for(
                    spec.world.seed, epoch, spec.stream() + ":congestion"
                ),
            )
        else:
            batch = ScenarioEpochBatch(
                graph=self.graph, dead_aps=dead, trials=tuple(trials)
            )
        with span("scenario.simulate", epoch=epoch, flows=len(trials)):
            outcomes = (
                self._runner.map(scenario_epoch_batch, [batch], world=self.world)[0]
                if trials
                else []
            )
        delivered = sum(1 for ok, _tx in outcomes if ok)
        transmissions = sum(tx for _ok, tx in outcomes)

        after = bg.stats()
        reported_islands = sum(
            1 for island in islands if island.size >= spec.min_island_size
        )
        return EpochReport(
            epoch=epoch,
            hour=epoch * spec.epoch_hours,
            events=tuple(fired),
            alive_aps=len(alive),
            total_aps=len(self.graph.aps),
            islands=reported_islands,
            largest_island=islands[0].size if islands else 0,
            graph_version=bg.version,
            mutated=mutated,
            deployed_aps=deployed_now,
            replans=replans,
            flows=len(self.flows) + len(self._mobile_pairs),
            routable_flows=routable,
            reachable_flows=reachable,
            simulated_flows=len(trials),
            delivered_flows=delivered,
            delivery_rate=delivered
            / (len(self.flows) + len(self._mobile_pairs)),
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
        self.epoch_wall_s: list[float] = []
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
            flow_count=len(self.flows) + len(self._mobile_pairs),
            initial_aps=len(self.world.graph.aps),
            epochs=tuple(reports),
            manifest=manifest.finish().to_dict(),
        )


def run_scenario(
    spec: ScenarioSpec, runner: TrialRunner | None = None
) -> ScenarioResult:
    """Convenience wrapper: drive a spec to its result."""
    with ScenarioDriver(spec, runner=runner) as driver:
        return driver.run()
