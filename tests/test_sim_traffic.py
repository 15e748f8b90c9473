"""Tests for the multi-message traffic simulation."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry import Point
from repro.mesh import APGraph, AccessPoint
from repro.sim import (
    FloodPolicy,
    FlowSpec,
    GossipPolicy,
    SimParams,
    TrafficMessage,
    poisson_workload,
    simulate_broadcast,
    simulate_broadcast_batch,
    simulate_traffic,
    simulate_traffic_batch,
)
from repro.sim.traffic import _AirLog


def chain(n=6, spacing=40.0):
    aps = [AccessPoint(i, Point(i * spacing, 0.0), i + 1) for i in range(n)]
    return APGraph(aps, transmission_range=50)


def clique(n=6, spacing=5.0):
    """n APs all within range of each other (worst collision case)."""
    aps = [AccessPoint(i, Point(i * spacing, 0.0), i + 1) for i in range(n)]
    return APGraph(aps, transmission_range=50)


def one_message(graph, source_ap, dest_building, policy, rng, compromised=frozenset(), **kw):
    """Run a single message from time 0; returns the whole result."""
    message = TrafficMessage(0, 0.0, source_ap, dest_building, policy, compromised)
    return simulate_traffic(graph, [message], rng, **kw)


class TestAirLog:
    def test_no_intervals(self):
        log = _AirLog()
        assert not log.overlaps(0, 0.0, 1.0)

    def test_basic_overlap(self):
        log = _AirLog()
        log.add(0, 1.0, 2.0)
        assert log.overlaps(0, 1.5, 2.5)
        assert log.overlaps(0, 0.5, 1.5)
        assert not log.overlaps(0, 2.0, 3.0)  # touching is not overlap
        assert not log.overlaps(0, 0.0, 1.0)

    def test_skip_own_interval(self):
        log = _AirLog()
        log.add(0, 1.0, 2.0)
        assert not log.overlaps(0, 1.0, 2.0, skip=(1.0, 2.0))

    def test_many_intervals_sorted_lookup(self):
        log = _AirLog()
        for i in range(100):
            log.add(0, float(i), i + 0.5)
        assert log.overlaps(0, 50.25, 50.4)
        assert not log.overlaps(0, 50.6, 50.9)


class TestSimulateTraffic:
    def test_frame_time_validation(self):
        with pytest.raises(ValueError):
            simulate_traffic(chain(), [], random.Random(0), frame_time_s=0)

    def test_duplicate_ids_rejected(self):
        g = chain()
        msg = TrafficMessage(1, 0.0, 0, 6, FloodPolicy())
        with pytest.raises(ValueError):
            simulate_traffic(g, [msg, msg], random.Random(0))

    def test_single_message_delivers(self):
        g = chain()
        msgs = [TrafficMessage(0, 0.0, 0, 6, FloodPolicy())]
        r = simulate_traffic(
            g, msgs, random.Random(0), params=SimParams(jitter_s=0.05)
        )
        assert r.delivery_rate == 1.0
        assert r.outcomes[0].delivery_time_s > 0

    def test_empty_workload(self):
        r = simulate_traffic(chain(), [], random.Random(0))
        assert r.offered == 0
        assert r.delivery_rate == 0.0

    def test_staggered_messages_deliver(self):
        """Messages far apart in time never interfere."""
        g = chain()
        msgs = [
            TrafficMessage(0, 0.0, 0, 6, FloodPolicy()),
            TrafficMessage(1, 10.0, 5, 1, FloodPolicy()),
        ]
        r = simulate_traffic(
            g, msgs, random.Random(0), params=SimParams(jitter_s=0.05, max_sim_time_s=30)
        )
        assert r.delivery_rate == 1.0
        assert r.total_collisions == 0

    def test_simultaneous_messages_can_collide(self):
        """Two messages injected at the same instant on the same chain
        interfere with zero jitter."""
        g = chain()
        msgs = [
            TrafficMessage(0, 0.0, 0, 6, FloodPolicy()),
            TrafficMessage(1, 0.0, 5, 1, FloodPolicy()),
        ]
        r = simulate_traffic(
            g, msgs, random.Random(0), params=SimParams(jitter_s=0.0)
        )
        assert r.total_collisions > 0

    def test_delivery_time_relative_to_start(self):
        g = chain()
        msgs = [TrafficMessage(0, 5.0, 0, 6, FloodPolicy())]
        r = simulate_traffic(
            g, msgs, random.Random(0), params=SimParams(jitter_s=0.05, max_sim_time_s=30)
        )
        outcome = r.outcomes[0]
        assert outcome.delivered
        # Delay is measured from the message's start, not sim zero.
        assert 0 < outcome.delivery_time_s < 5.0

    def test_source_in_dest_building(self):
        g = chain()
        msgs = [TrafficMessage(0, 0.0, 2, 3, FloodPolicy())]
        r = simulate_traffic(g, msgs, random.Random(0))
        assert r.outcomes[0].delivered
        assert r.outcomes[0].delivery_time_s == 0.0


class TestSingleMessageCollisions:
    """One message alone on the air: the single-broadcast collision model."""

    def test_frame_time_validation(self):
        with pytest.raises(ValueError):
            one_message(chain(5), 0, 5, FloodPolicy(), random.Random(0), frame_time_s=0)

    def test_chain_with_jitter_delivers(self):
        """On a chain, only one AP transmits at a time once jitter
        separates the rebroadcasts: no collisions, full delivery."""
        r = one_message(
            chain(5), 0, 5, FloodPolicy(), random.Random(0),
            params=SimParams(jitter_s=0.05),
        )
        assert r.outcomes[0].delivered
        assert r.total_transmissions == 5

    def test_zero_jitter_clique_collides(self):
        """All neighbours rebroadcast simultaneously with zero jitter:
        every secondary frame collides."""
        r = one_message(
            clique(6), 0, 99, FloodPolicy(), random.Random(0),
            params=SimParams(jitter_s=0.0),
        )
        # The source frame arrives cleanly (no one else talking), then
        # all 5 receivers rebroadcast at the same instant and jam.
        assert r.total_collisions > 0

    def test_half_duplex(self):
        """A node transmitting cannot decode an overlapping frame."""
        # Both neighbours of the source hear it and rebroadcast in the
        # same slot: each is deaf to the other's frame.
        r = one_message(
            clique(3), 0, 99, FloodPolicy(), random.Random(0),
            params=SimParams(jitter_s=0.0),
        )
        assert r.total_collisions >= 2

    def test_jitter_improves_delivery(self):
        """More jitter -> fewer collisions -> more deliveries (the
        design rationale for rebroadcast jitter)."""
        g = clique(8)

        def delivery_rate(jitter):
            ok = 0
            for seed in range(10):
                r = one_message(
                    g, 0, 8, FloodPolicy(), random.Random(seed),
                    params=SimParams(jitter_s=jitter),
                )
                ok += r.outcomes[0].delivered
            return ok

        assert delivery_rate(0.05) >= delivery_rate(0.0)

    def test_collision_rate_property(self):
        r = one_message(
            clique(5), 0, 99, FloodPolicy(), random.Random(0),
            params=SimParams(jitter_s=0.0),
        )
        assert 0 <= r.collision_rate <= 1

    def test_matches_ideal_model_when_no_contention(self):
        """A sparse chain with large jitter behaves like the ideal model."""
        g = chain(8)
        params = SimParams(jitter_s=0.2)
        ideal = simulate_broadcast(g, 0, 8, FloodPolicy(), random.Random(3), params=params)
        r = one_message(g, 0, 8, FloodPolicy(), random.Random(3), params=params)
        assert ideal.delivered == r.outcomes[0].delivered
        assert ideal.transmissions == r.total_transmissions

    def test_compromised_nodes_respected(self):
        r = one_message(
            chain(5), 0, 5, FloodPolicy(), random.Random(0),
            compromised=frozenset({2}), params=SimParams(jitter_s=0.05),
        )
        # AP 2 hears the message but drops it: only APs 0 and 1 send.
        assert r.outcomes[0].transmissions == 2
        assert not r.outcomes[0].delivered

    def test_compromised_ap_still_delivers(self):
        """A blackhole in the destination building still counts as
        delivery — it receives before it drops."""
        r = one_message(
            chain(5), 0, 3, FloodPolicy(), random.Random(0),
            compromised=frozenset({2}), params=SimParams(jitter_s=0.05),
        )
        assert r.outcomes[0].delivered
        assert r.outcomes[0].transmissions == 2


class TestTrafficBatch:
    def test_batch_honours_compromised(self):
        """The shared-air batch drops a flow at its blackholes, as the
        private-air batch does."""
        g = chain(5)
        flow = FlowSpec(0, 5, FloodPolicy(), random.Random(0), frozenset({2}))
        private = simulate_broadcast_batch(g, [flow])
        shared = simulate_traffic_batch(g, [flow], [0.0], random.Random(0))
        assert not private[0].delivered
        assert not shared[0].delivered
        assert shared[0].transmissions == 2

    def test_start_times_must_match_flows(self):
        flow = FlowSpec(0, 5, FloodPolicy(), random.Random(0))
        with pytest.raises(ValueError):
            simulate_traffic_batch(chain(5), [flow], [0.0, 1.0], random.Random(0))


class TestConservation:
    @given(
        n=st.integers(min_value=2, max_value=12),
        data=st.data(),
        jitter=st.sampled_from([0.0, 0.002, 0.01]),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    @settings(max_examples=60, deadline=None)
    def test_every_arrival_is_received_or_collided(self, n, data, jitter, seed):
        """In a clique every frame reaches every other live AP, and each
        arrival is either decoded or lost to a collision."""
        g = clique(n, spacing=4.0)
        assert all(len(g.neighbors(i)) == n - 1 for i in range(n))
        dead = frozenset(data.draw(st.sets(st.integers(0, n - 1), max_size=n - 1)))
        alive = [i for i in range(n) if i not in dead]
        rng = random.Random(seed)
        messages = []
        for msg_id in range(data.draw(st.integers(min_value=1, max_value=4))):
            policy = data.draw(st.sampled_from(
                [FloodPolicy(), GossipPolicy(0.5, random.Random(seed + msg_id))]
            ))
            messages.append(TrafficMessage(
                msg_id,
                data.draw(st.floats(min_value=0.0, max_value=0.05)),
                data.draw(st.sampled_from(alive)),
                data.draw(st.integers(min_value=1, max_value=n + 1)),
                policy,
            ))
        r = simulate_traffic(
            g, messages, rng, dead_aps=dead,
            params=SimParams(jitter_s=jitter, max_sim_time_s=float("inf")),
        )
        assert r.total_receptions + r.total_collisions == (
            r.total_transmissions * (len(alive) - 1)
        )


class TestPoissonWorkload:
    def test_validation(self):
        g = chain()
        with pytest.raises(ValueError):
            poisson_workload(g, [1, 2], 0, 10, lambda s, d: FloodPolicy(), random.Random(0))
        with pytest.raises(ValueError):
            poisson_workload(g, [1], 1, 10, lambda s, d: FloodPolicy(), random.Random(0))

    def test_rate_scales_count(self):
        g = chain()
        ids = [1, 2, 3, 4, 5, 6]
        rng_lo = random.Random(0)
        rng_hi = random.Random(0)
        lo = poisson_workload(g, ids, 0.5, 60, lambda s, d: FloodPolicy(), rng_lo)
        hi = poisson_workload(g, ids, 5.0, 60, lambda s, d: FloodPolicy(), rng_hi)
        assert len(hi) > len(lo) * 3

    def test_arrivals_within_horizon(self):
        g = chain()
        msgs = poisson_workload(
            g, [1, 2, 3], 2.0, 30, lambda s, d: FloodPolicy(), random.Random(1)
        )
        assert all(0 <= m.start_s < 30 for m in msgs)
        assert [m.msg_id for m in msgs] == list(range(len(msgs)))

    def test_policy_none_skips_pair(self):
        g = chain()
        msgs = poisson_workload(
            g, [1, 2, 3], 2.0, 30, lambda s, d: None, random.Random(1)
        )
        assert msgs == []


class TestCapacityExperiment:
    def test_sweep_runs(self):
        from repro.experiments import format_capacity, run_capacity_sweep

        points = run_capacity_sweep(
            "gridport", rates=(0.5, 4.0), duration_s=8.0, seed=0
        )
        assert len(points) == 2
        assert points[0].delivery_rate >= points[1].delivery_rate - 0.2
        out = format_capacity(points)
        assert "Capacity" in out
