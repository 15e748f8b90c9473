"""Batched-vs-sequential equivalence for the columnar epoch fan-out.

``simulate_broadcast_batch`` over N flows must be byte-identical to N
sequential one-flow ``simulate_broadcast(fast=True)`` calls *and* to
the reference DES engine, for the same per-flow seeds — across policies,
radios, dead-AP masks, and seeds.  The frozen world (dead-filtered CSR,
cached verdict arrays) is shared state between flows, so these tests
deliberately mix flows that exercise it differently and re-run batches
to catch cache-order contamination.
"""

import random

import pytest

from repro.experiments import build_world
from repro.sim import (
    ConduitPolicy,
    FloodPolicy,
    FlowSpec,
    GossipPolicy,
    LossyRadio,
    simulate_broadcast,
    simulate_broadcast_batch,
)

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
def plan(world):
    src = world.city.buildings[0].id
    dst = world.city.buildings[-1].id
    return world.router.plan(src, dst)


def flow_args(world, plan, n_flows, base_seed, policy_kind="flood"):
    """N flows from distinct sources, individually seeded."""
    dst = world.city.buildings[-1].id
    sources = [world.graph.aps_in_building(b.id)[0]
               for b in world.city.buildings[:n_flows]]

    def policy_factory(seed):
        def make_policy():
            if policy_kind == "flood":
                return FloodPolicy()
            if policy_kind == "conduit":
                return ConduitPolicy(plan.conduits, world.city)
            if policy_kind == "gossip":
                return GossipPolicy(p=0.7, rng=random.Random(seed + 10_000))
            raise AssertionError(policy_kind)

        return make_policy

    return [(src, dst, policy_factory(base_seed + i), base_seed + i)
            for i, src in enumerate(sources)]


def flow_specs(args):
    return [
        FlowSpec(source_ap=src, dest_building=dst, policy=make_policy(),
                 rng=random.Random(seed))
        for src, dst, make_policy, seed in args
    ]


def assert_batch_matches(world, args, radio_factory=None, dead_aps=frozenset()):
    """Batch == sequential one-flow == reference DES, field by field and
    in the state each flow leaves its RNG in."""
    flows = flow_specs(args)
    batch = simulate_broadcast_batch(
        world.graph, flows,
        radio=radio_factory() if radio_factory else None,
        dead_aps=dead_aps,
    )
    for result, flow, (src, dst, make_policy, seed) in zip(batch, flows, args):
        reference_rng = random.Random(seed)
        sequential = simulate_broadcast(
            world.graph, src, dst, make_policy(), random.Random(seed),
            radio=radio_factory() if radio_factory else None,
            dead_aps=dead_aps, fast=True,
        )
        reference = simulate_broadcast(
            world.graph, src, dst, make_policy(), reference_rng,
            radio=radio_factory() if radio_factory else None,
            dead_aps=dead_aps, fast=False,
        )
        for field in RESULT_FIELDS:
            assert getattr(result, field) == getattr(sequential, field), field
            assert getattr(result, field) == getattr(reference, field), field
        assert flow.rng.getstate() == reference_rng.getstate()
    return batch


class TestBatchEquivalence:
    @pytest.mark.parametrize("base_seed", [0, 17, 42])
    def test_flood_batch(self, world, plan, base_seed):
        results = assert_batch_matches(
            world, flow_args(world, plan, 6, base_seed)
        )
        assert any(r.delivered for r in results)

    @pytest.mark.parametrize("base_seed", [0, 9])
    def test_conduit_batch(self, world, plan, base_seed):
        assert_batch_matches(
            world, flow_args(world, plan, 4, base_seed, policy_kind="conduit")
        )

    @pytest.mark.parametrize("base_seed", [0, 5])
    def test_gossip_batch_falls_back_identically(self, world, plan, base_seed):
        # Gossip policies draw per-AP RNG and cannot be frozen into a
        # bitmap; the batch must still match by asking them per receiver.
        assert_batch_matches(
            world, flow_args(world, plan, 4, base_seed, policy_kind="gossip")
        )

    @pytest.mark.parametrize("seed,loss", [(0, 0.1), (3, 0.3)])
    def test_lossy_radio_batch(self, world, plan, seed, loss):
        assert_batch_matches(
            world, flow_args(world, plan, 4, seed),
            radio_factory=lambda: LossyRadio(loss_probability=loss),
        )

    @pytest.mark.parametrize("base_seed", [0, 23])
    def test_dead_ap_masks(self, world, plan, base_seed):
        rng = random.Random(base_seed)
        args = flow_args(world, plan, 5, base_seed)
        sources = {a[0] for a in args}
        dead = frozenset(
            ap.id for ap in world.graph.aps
            if ap.id not in sources and rng.random() < 0.15
        )
        assert_batch_matches(world, args, dead_aps=dead)

    def test_mixed_policies_one_batch(self, world, plan):
        # One frozen world shared by flood, conduit, and lazy-lane flows.
        args = (
            flow_args(world, plan, 2, 1)
            + flow_args(world, plan, 2, 101, policy_kind="conduit")
            + flow_args(world, plan, 2, 201, policy_kind="gossip")
        )
        assert_batch_matches(world, args)

    def test_bitmap_and_lazy_flows_under_one_dead_set(self, world, plan):
        # Both verdict lanes read the same dead-filtered CSR.
        args = (
            flow_args(world, plan, 2, 3, policy_kind="conduit")
            + flow_args(world, plan, 3, 303, policy_kind="gossip")
            + flow_args(world, plan, 1, 403)
        )
        sources = {a[0] for a in args}
        dead = frozenset(
            a for a in range(0, len(world.graph), 6) if a not in sources
        )
        results = assert_batch_matches(world, args, dead_aps=dead)
        assert all(not r.heard & dead for r in results)

    def test_batch_repeats_are_stable(self, world, plan):
        # Re-running the same batch (warm caches) must not drift.
        args = flow_args(world, plan, 4, 7)
        first = assert_batch_matches(world, args)
        second = assert_batch_matches(world, args)
        assert first == second

    def test_dead_source_rejected_up_front(self, world, plan):
        args = flow_args(world, plan, 3, 0)
        dead = frozenset({args[1][0]})
        with pytest.raises(ValueError, match="dead"):
            assert_batch_matches(world, args, dead_aps=dead)

    def test_empty_batch(self, world):
        assert simulate_broadcast_batch(world.graph, []) == []

    def test_scalar_fallback_is_counted(self, world, plan):
        # There is no scalar fallback left to count: a gossip batch is
        # kernel flows like any other, and ``sim.columnar.flows``
        # advances by exactly the batch size.
        from repro.obs import REGISTRY

        columnar = REGISTRY.counter("sim.columnar.flows")
        for kind, n_flows in (("gossip", 3), ("flood", 4)):
            flows = flow_specs(flow_args(world, plan, n_flows, 11, policy_kind=kind))
            before = columnar.value
            simulate_broadcast_batch(world.graph, flows)
            assert columnar.value - before == n_flows

        assert "sim.columnar.flows" in REGISTRY.snapshot()["counters"]
