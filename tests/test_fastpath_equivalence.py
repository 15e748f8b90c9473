"""Seeded equivalence: the broadcast kernel must reproduce the reference
engine bit-for-bit for every policy/radio/suppression combination."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.city import Building, City
from repro.core import BuildingRouter
from repro.experiments import build_world
from repro.geometry import ConduitPath, Point, Polygon
from repro.mesh import APGraph, AccessPoint
from repro.sim import (
    ConduitPolicy,
    FloodPolicy,
    GossipPolicy,
    LossyRadio,
    Reception,
    SimParams,
    simulate_broadcast,
)
from repro.sim.broadcast import PositionConduitPolicy

RESULT_FIELDS = (
    "delivered",
    "delivery_time_s",
    "transmissions",
    "receptions",
    "duplicates",
    "suppressed",
    "transmitters",
    "heard",
)


@pytest.fixture(scope="module")
def world():
    return build_world("gridport", seed=0)


@pytest.fixture(scope="module")
def endpoints(world):
    src_building = world.city.buildings[0].id
    dst_building = world.city.buildings[-1].id
    source_ap = world.graph.aps_in_building(src_building)[0]
    return src_building, dst_building, source_ap


@pytest.fixture(scope="module")
def plan(world, endpoints):
    src_building, dst_building, _ = endpoints
    return world.router.plan(src_building, dst_building)


def assert_identical(graph, source_ap, dest_building, policy_factory, seed,
                     radio_factory=None, params=None, compromised=frozenset(),
                     dead_aps=frozenset()):
    """Run both kernels from identically seeded RNGs and compare all
    result fields (including the transmitter/heard sets) and the state
    each run leaves its RNG in."""
    reference_rng, fast_rng = random.Random(seed), random.Random(seed)
    reference = simulate_broadcast(
        graph, source_ap, dest_building, policy_factory(), reference_rng,
        radio=radio_factory() if radio_factory else None,
        params=params, compromised=compromised, dead_aps=dead_aps, fast=False,
    )
    fast = simulate_broadcast(
        graph, source_ap, dest_building, policy_factory(), fast_rng,
        radio=radio_factory() if radio_factory else None,
        params=params, compromised=compromised, dead_aps=dead_aps, fast=True,
    )
    for field in RESULT_FIELDS:
        assert getattr(reference, field) == getattr(fast, field), field
    assert reference_rng.getstate() == fast_rng.getstate()
    return reference


class TestPolicyEquivalence:
    @pytest.mark.parametrize("seed", [0, 1, 7, 42])
    def test_flood(self, world, endpoints, seed):
        _, dst, src_ap = endpoints
        result = assert_identical(world.graph, src_ap, dst, FloodPolicy, seed)
        assert result.delivered  # gridport is connected: a real broadcast

    @pytest.mark.parametrize("seed", [0, 3, 11])
    def test_conduit(self, world, endpoints, plan, seed):
        _, dst, src_ap = endpoints
        assert_identical(
            world.graph, src_ap, dst,
            lambda: ConduitPolicy(plan.conduits, world.city), seed,
        )

    @pytest.mark.parametrize("seed", [0, 5])
    def test_position_conduit(self, world, endpoints, plan, seed):
        _, dst, src_ap = endpoints
        assert_identical(
            world.graph, src_ap, dst,
            lambda: PositionConduitPolicy(plan.conduits), seed,
        )

    @pytest.mark.parametrize("p", [0.0, 0.3, 0.7, 1.0])
    def test_gossip_own_rng(self, world, endpoints, p):
        _, dst, src_ap = endpoints
        assert_identical(
            world.graph, src_ap, dst,
            lambda: GossipPolicy(p, random.Random(99)), seed=4,
        )

    def test_gossip_sharing_the_sim_rng(self, world, endpoints):
        """Hardest RNG-order case: the gossip draws interleave with the
        jitter draws on one stream, so any reordering shows up."""
        _, dst, src_ap = endpoints
        results = []
        for fast in (False, True):
            rng = random.Random(123)
            results.append(
                simulate_broadcast(
                    world.graph, src_ap, dst, GossipPolicy(0.5, rng), rng, fast=fast
                )
            )
        for field in RESULT_FIELDS:
            assert getattr(results[0], field) == getattr(results[1], field), field


class TestParamsEquivalence:
    @pytest.mark.parametrize("threshold", [1, 2, 3, 5])
    def test_suppression_thresholds(self, world, endpoints, threshold):
        _, dst, src_ap = endpoints
        result = assert_identical(
            world.graph, src_ap, dst, FloodPolicy, seed=2,
            params=SimParams(suppression_threshold=threshold),
        )
        if threshold <= 2:
            assert result.suppressed > 0  # the knob actually engages

    def test_zero_jitter(self, world, endpoints):
        _, dst, src_ap = endpoints
        assert_identical(
            world.graph, src_ap, dst, FloodPolicy, seed=2,
            params=SimParams(jitter_s=0.0),
        )

    def test_truncated_horizon(self, world, endpoints):
        _, dst, src_ap = endpoints
        result = assert_identical(
            world.graph, src_ap, dst, FloodPolicy, seed=2,
            params=SimParams(max_sim_time_s=0.01),
        )
        assert result.receptions > 0  # horizon cuts the run mid-flood

    def test_unbounded_horizon(self, world, endpoints):
        _, dst, src_ap = endpoints
        assert_identical(
            world.graph, src_ap, dst, FloodPolicy, seed=2,
            params=SimParams(max_sim_time_s=float("inf")),
        )

    @pytest.mark.parametrize("loss", [0.1, 0.5])
    def test_lossy_radio(self, world, endpoints, loss):
        _, dst, src_ap = endpoints
        assert_identical(
            world.graph, src_ap, dst, FloodPolicy, seed=6,
            radio_factory=lambda: LossyRadio(loss_probability=loss),
        )

    def test_lossy_radio_with_suppression_and_conduit(self, world, endpoints, plan):
        _, dst, src_ap = endpoints
        assert_identical(
            world.graph, src_ap, dst,
            lambda: ConduitPolicy(plan.conduits, world.city), seed=8,
            radio_factory=lambda: LossyRadio(loss_probability=0.15),
            params=SimParams(suppression_threshold=2),
        )

    def test_compromised_blackholes(self, world, endpoints):
        _, dst, src_ap = endpoints
        compromised = frozenset(range(0, len(world.graph), 7))
        assert_identical(
            world.graph, src_ap, dst, FloodPolicy, seed=3,
            compromised=compromised,
        )


class StaggeredRadio:
    """A radio outside the built-in types: per-receiver delays drawn
    from a few discrete values (so receptions of different transmissions
    tie on time and the sequence order decides) and its own loss draws."""

    def receptions(self, neighbor_ids, rng):
        return [
            Reception(receiver_id=n, delay_s=0.001 * (1 + n % 3))
            for n in neighbor_ids
            if rng.random() >= 0.2
        ]


class TestLaneEquivalence:
    """Lazy verdicts and generic radios, alone and combined with each
    other and with bitmap verdicts and the built-in radios."""

    @pytest.mark.parametrize("seed", [0, 13])
    def test_custom_radio(self, world, endpoints, seed):
        _, dst, src_ap = endpoints
        result = assert_identical(
            world.graph, src_ap, dst, FloodPolicy, seed,
            radio_factory=StaggeredRadio,
        )
        assert result.duplicates > 0

    def test_custom_radio_with_gossip_suppression_and_dead_aps(
        self, world, endpoints
    ):
        _, dst, src_ap = endpoints
        dead = frozenset(a for a in range(0, len(world.graph), 5) if a != src_ap)
        result = assert_identical(
            world.graph, src_ap, dst,
            lambda: GossipPolicy(0.8, random.Random(5)), seed=21,
            radio_factory=StaggeredRadio,
            params=SimParams(suppression_threshold=2),
            compromised=frozenset(range(1, len(world.graph), 11)),
            dead_aps=dead,
        )
        assert result.suppressed > 0
        assert not result.heard & dead

    @pytest.mark.parametrize("loss", [0.1, 0.4])
    def test_lossy_radio_and_gossip_sharing_the_sim_rng(
        self, world, endpoints, loss
    ):
        """Loss draws at transmit time interleave with gossip and jitter
        draws at reception time on one stream."""
        _, dst, src_ap = endpoints
        results = []
        for fast in (False, True):
            rng = random.Random(31)
            results.append(
                simulate_broadcast(
                    world.graph, src_ap, dst, GossipPolicy(0.6, rng), rng,
                    radio=LossyRadio(loss_probability=loss), fast=fast,
                )
            )
        assert results[0].transmissions > 1
        for field in RESULT_FIELDS:
            assert getattr(results[0], field) == getattr(results[1], field), field

    def test_conduit_memo_seeded_by_a_prior_run_is_honoured(
        self, world, endpoints, plan
    ):
        src, dst, src_ap = endpoints
        policies = [ConduitPolicy(plan.conduits, world.city) for _ in range(2)]
        for policy in policies:
            simulate_broadcast(
                world.graph, src_ap, dst, policy, random.Random(0), fast=False
            )
            # A memo entry the geometry would contradict: only a lazy
            # evaluation through the memo reproduces the reference.
            policy._memo[src] = not policy._memo[src]
        assert_identical(world.graph, src_ap, dst, policies.pop, seed=2)


class TestDeadAPEquivalence:
    """``dead_aps`` must behave identically across engines without any
    APGraph rebuild — dead APs never receive, transmit, or deliver."""

    def dead_every(self, world, src_ap, k):
        return frozenset(a for a in range(0, len(world.graph), k) if a != src_ap)

    @pytest.mark.parametrize("seed", [0, 9])
    def test_flood_with_dead_aps(self, world, endpoints, seed):
        _, dst, src_ap = endpoints
        dead = self.dead_every(world, src_ap, 5)
        result = assert_identical(
            world.graph, src_ap, dst, FloodPolicy, seed, dead_aps=dead,
        )
        assert not result.heard & dead
        assert not result.transmitters & dead

    def test_lossy_radio_rng_alignment(self, world, endpoints):
        """Loss draws happen per surviving neighbour: the dead filter
        must run before them in both engines or seeds desynchronise."""
        _, dst, src_ap = endpoints
        dead = self.dead_every(world, src_ap, 3)
        assert_identical(
            world.graph, src_ap, dst, FloodPolicy, seed=6,
            radio_factory=lambda: LossyRadio(loss_probability=0.25),
            dead_aps=dead,
        )

    def test_gossip_with_dead_aps_shared_rng(self, world, endpoints):
        _, dst, src_ap = endpoints
        dead = self.dead_every(world, src_ap, 4)
        results = []
        for fast in (False, True):
            rng = random.Random(77)
            results.append(
                simulate_broadcast(
                    world.graph, src_ap, dst, GossipPolicy(0.5, rng), rng,
                    dead_aps=dead, fast=fast,
                )
            )
        for field in RESULT_FIELDS:
            assert getattr(results[0], field) == getattr(results[1], field), field

    def test_conduit_with_dead_aps(self, world, endpoints, plan):
        _, dst, src_ap = endpoints
        dead = self.dead_every(world, src_ap, 6)
        assert_identical(
            world.graph, src_ap, dst,
            lambda: ConduitPolicy(plan.conduits, world.city), seed=11,
            dead_aps=dead,
        )

    def test_dead_set_blocks_delivery(self, world, endpoints):
        """Killing every AP of the destination building prevents
        delivery even though the mesh floods around it."""
        _, dst, src_ap = endpoints
        dead = frozenset(world.graph.aps_in_building(dst))
        for fast in (False, True):
            result = simulate_broadcast(
                world.graph, src_ap, dst, FloodPolicy(), random.Random(0),
                dead_aps=dead, fast=fast,
            )
            assert not result.delivered

    def test_empty_dead_set_matches_baseline(self, world, endpoints):
        _, dst, src_ap = endpoints
        baseline = simulate_broadcast(
            world.graph, src_ap, dst, FloodPolicy(), random.Random(1)
        )
        explicit = simulate_broadcast(
            world.graph, src_ap, dst, FloodPolicy(), random.Random(1),
            dead_aps=frozenset(),
        )
        for field in RESULT_FIELDS:
            assert getattr(baseline, field) == getattr(explicit, field), field

    def test_dead_source_raises(self, world, endpoints):
        _, dst, src_ap = endpoints
        for fast in (False, True):
            with pytest.raises(ValueError):
                simulate_broadcast(
                    world.graph, src_ap, dst, FloodPolicy(), random.Random(0),
                    dead_aps=frozenset({src_ap}), fast=fast,
                )


class TestEdgeCases:
    def test_source_in_destination_building(self, world):
        building = world.city.buildings[0].id
        src_ap = world.graph.aps_in_building(building)[0]
        result = assert_identical(world.graph, src_ap, building, FloodPolicy, 0)
        assert result.delivered and result.delivery_time_s == 0.0

    def test_custom_policy_falls_back_lazily(self, world, endpoints):
        """An unknown policy type must go through the lazy path and
        still match the reference exactly."""
        _, dst, src_ap = endpoints

        class EveryOther:
            def should_rebroadcast(self, ap):
                return ap.id % 2 == 0

        assert_identical(world.graph, src_ap, dst, EveryOther, seed=1)

    def test_disconnected_target(self):
        aps = [
            AccessPoint(0, Point(0, 0), 1),
            AccessPoint(1, Point(40, 0), 2),
            AccessPoint(2, Point(500, 0), 3),
        ]
        graph = APGraph(aps, transmission_range=50)
        result = assert_identical(graph, 0, 3, FloodPolicy, 0)
        assert not result.delivered

    def test_conduit_end_to_end_small(self):
        n, spacing = 6, 40.0
        city = City(
            "chain",
            [
                Building(i + 1, Polygon.rectangle(i * spacing - 5, -5, i * spacing + 5, 5))
                for i in range(n)
            ],
        )
        graph = APGraph(
            [AccessPoint(i, Point(i * spacing, 0.0), i + 1) for i in range(n)],
            transmission_range=50,
        )
        plan = BuildingRouter(city).plan(1, n)
        result = assert_identical(
            graph, 0, n, lambda: ConduitPolicy(plan.conduits, city), seed=0
        )
        assert result.delivered



@st.composite
def random_broadcasts(draw):
    """A small random world plus one flow over every kernel axis:
    policy, radio, suppression, jitter, horizon, dead and compromised
    sets."""
    cols = draw(st.integers(1, 5))
    rows = draw(st.integers(1, 4))
    pitch = draw(st.sampled_from([35.0, 45.0, 60.0]))
    buildings = [
        Building(
            r * cols + c + 1,
            Polygon.rectangle(c * pitch, r * pitch, c * pitch + 30, r * pitch + 30),
        )
        for r in range(rows)
        for c in range(cols)
    ]
    placements = draw(
        st.lists(
            st.tuples(
                st.integers(0, len(buildings) - 1),
                st.floats(0.0, 30.0),
                st.floats(0.0, 30.0),
            ),
            min_size=1,
            max_size=60,
        )
    )
    aps = []
    for i, (b, dx, dy) in enumerate(placements):
        x0, y0, _, _ = buildings[b].polygon.bbox
        aps.append(AccessPoint(i, Point(x0 + dx, y0 + dy), buildings[b].id))
    city = City("prop", buildings)
    graph = APGraph(aps, transmission_range=50)
    coordinate = st.floats(-20.0, max(cols, rows) * pitch + 20)
    waypoints = draw(
        st.lists(st.builds(Point, coordinate, coordinate), min_size=1, max_size=4)
    )
    conduits = ConduitPath.from_waypoints(waypoints, draw(st.floats(5.0, 60.0)))
    source = draw(st.integers(0, len(aps) - 1))
    ap_ids = st.integers(0, len(aps) - 1)
    return {
        "graph": graph,
        "city": city,
        "conduits": conduits,
        "source": source,
        "dest": draw(st.sampled_from(buildings)).id,
        "policy": draw(st.sampled_from(
            ["flood", "conduit", "position", "gossip_own", "gossip_sim"]
        )),
        "gossip_p": draw(st.floats(0.0, 1.0)),
        "radio": draw(st.sampled_from(["unit", "lossy", "custom"])),
        "params": SimParams(
            jitter_s=draw(st.sampled_from([0.0, 0.01])),
            max_sim_time_s=draw(st.one_of(st.just(float("inf")), st.floats(0.001, 0.05))),
            suppression_threshold=draw(st.sampled_from([None, 1, 2])),
        ),
        "dead": frozenset(draw(st.sets(ap_ids, max_size=20)) - {source}),
        "compromised": frozenset(draw(st.sets(ap_ids, max_size=20))),
        "seed": draw(st.integers(0, 2**32 - 1)),
    }


def _run(case, fast):
    rng = random.Random(case["seed"])
    kind = case["policy"]
    if kind == "flood":
        policy = FloodPolicy()
    elif kind == "conduit":
        policy = ConduitPolicy(case["conduits"], case["city"])
    elif kind == "position":
        policy = PositionConduitPolicy(case["conduits"])
    elif kind == "gossip_own":
        policy = GossipPolicy(case["gossip_p"], random.Random(case["seed"] + 1))
    else:
        policy = GossipPolicy(case["gossip_p"], rng)
    radio = {
        "unit": lambda: None,
        "lossy": lambda: LossyRadio(loss_probability=0.3),
        "custom": StaggeredRadio,
    }[case["radio"]]()
    result = simulate_broadcast(
        case["graph"], case["source"], case["dest"], policy, rng,
        radio=radio, params=case["params"], compromised=case["compromised"],
        dead_aps=case["dead"], fast=fast,
    )
    return result, rng.getstate()


@settings(max_examples=150, deadline=None)
@given(random_broadcasts())
def test_kernel_matches_reference_on_random_worlds(case):
    reference, reference_state = _run(case, fast=False)
    fast, fast_state = _run(case, fast=True)
    for field in RESULT_FIELDS:
        assert getattr(reference, field) == getattr(fast, field), field
    assert reference_state == fast_state
