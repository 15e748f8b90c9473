"""Tests for the fallback applications: emergency, geocast, payments,
directory."""

import random

import pytest

from repro.apps import (
    Alert,
    Cheque,
    Directory,
    DirectoryNode,
    DirectoryRecord,
    Ledger,
    PaymentError,
    Wallet,
    broadcast_alert,
    geocast,
    rendezvous_building,
)
from repro.city import make_city
from repro.core import BuildingRouter
from repro.geometry import Point, Polygon
from repro.mesh import APGraph, place_aps
from repro.postbox import KeyPair, PostboxAddress

RNG = random.Random(2024)
AUTHORITY = KeyPair.generate(RNG, bits=512)


@pytest.fixture(scope="module")
def world():
    city = make_city("gridport", seed=8)
    aps = place_aps(city, rng=random.Random(8))
    graph = APGraph(aps)
    router = BuildingRouter(city)
    return city, graph, router


class TestEmergencyBroadcast:
    def test_citywide_alert_covers_most_buildings(self, world):
        city, graph, _ = world
        alert = Alert.issue(AUTHORITY, b"EVACUATE LOW AREAS")
        coverage = broadcast_alert(city, graph, alert, origin_ap=0, rng=random.Random(1))
        assert coverage.coverage > 0.95
        assert coverage.transmissions >= coverage.heard_aps * 0.5

    def test_alert_authenticity_enforced(self, world):
        city, graph, _ = world
        alert = Alert.issue(AUTHORITY, b"real alert")
        forged = Alert(
            body=b"fake alert",
            issuer=alert.issuer,
            signature=alert.signature,  # signature of the *other* body
        )
        assert not forged.is_authentic()
        with pytest.raises(ValueError):
            broadcast_alert(city, graph, forged, origin_ap=0, rng=random.Random(1))

    def test_scoped_alert_limits_transmissions(self, world):
        city, graph, _ = world
        min_x, min_y, max_x, max_y = city.bounds()
        zone = Polygon.rectangle(min_x, min_y, min_x + (max_x - min_x) / 3, max_y)
        origin = graph.aps_in_building(
            city.buildings_near(Point(min_x + 50, min_y + 50), 100)[0].id
        )[0]
        scoped = broadcast_alert(
            city, graph, Alert.issue(AUTHORITY, b"zone A", region=zone), origin,
            rng=random.Random(2),
        )
        citywide = broadcast_alert(
            city, graph, Alert.issue(AUTHORITY, b"all"), origin, rng=random.Random(2)
        )
        assert scoped.transmissions < citywide.transmissions / 2
        assert scoped.coverage > 0.9  # covers its own zone well

    def test_coverage_zero_targets(self):
        from repro.apps.emergency import BroadcastCoverage

        assert BroadcastCoverage(0, 0, 0, 0).coverage is None


class TestGeocast:
    def test_coverage_zero_targets(self):
        from repro.apps.geocast import GeocastResult

        assert GeocastResult(False, 0, 0, 0).coverage is None

    def test_radius_validation(self, world):
        city, graph, router = world
        with pytest.raises(ValueError):
            geocast(city, graph, router, city.buildings[0].id, Point(0, 0), -5,
                    random.Random(0))

    def test_delivers_to_region(self, world):
        city, graph, router = world
        src = city.buildings[0].id
        target = city.buildings[-1].centroid()
        result = geocast(
            city, graph, router, src, target, radius=120, rng=random.Random(3)
        )
        assert result.delivered
        assert result.target_buildings >= 3
        assert result.coverage > 0.6

    def test_local_geocast(self, world):
        """Target beside the source: the degenerate-route path."""
        city, graph, router = world
        src = city.buildings[0].id
        target = city.building(src).centroid()
        result = geocast(
            city, graph, router, src, target, radius=100, rng=random.Random(4)
        )
        assert result.delivered
        assert result.coverage > 0.5

    def test_transmissions_scoped(self, world):
        """A geocast should not flood the whole city."""
        city, graph, router = world
        src = city.buildings[0].id
        target = city.buildings[-1].centroid()
        result = geocast(
            city, graph, router, src, target, radius=100, rng=random.Random(5)
        )
        assert result.transmissions < len(graph) / 2


class TestPayments:
    def test_cheque_roundtrip(self):
        alice = Wallet(KeyPair.generate(random.Random(1), bits=512))
        cheque = alice.write_cheque("bob-name", 500)
        assert cheque.is_authentic()
        assert cheque.payer_name == alice.name

    def test_amount_validation(self):
        alice = Wallet(KeyPair.generate(random.Random(1), bits=512))
        with pytest.raises(PaymentError):
            alice.write_cheque("bob", 0)

    def test_serials_increase(self):
        alice = Wallet(KeyPair.generate(random.Random(1), bits=512))
        c1 = alice.write_cheque("bob", 100)
        c2 = alice.write_cheque("bob", 100)
        assert c2.serial == c1.serial + 1

    def test_tampered_cheque_rejected(self):
        alice = Wallet(KeyPair.generate(random.Random(1), bits=512))
        cheque = alice.write_cheque("bob", 100)
        forged = Cheque(
            payer=cheque.payer,
            payee_name=cheque.payee_name,
            amount_cents=100_000,  # inflated
            serial=cheque.serial,
            signature=cheque.signature,
        )
        ledger = Ledger()
        assert not ledger.deposit(forged)
        assert ledger.balance_of("bob") == 0

    def test_ledger_balances(self):
        alice = Wallet(KeyPair.generate(random.Random(1), bits=512))
        ledger = Ledger()
        assert ledger.deposit(alice.write_cheque("bob", 300))
        assert ledger.deposit(alice.write_cheque("carol", 200))
        assert ledger.balance_of(alice.name) == -500
        assert ledger.balance_of("bob") == 300
        assert ledger.balance_of("carol") == 200

    def test_duplicate_deposit_ignored(self):
        alice = Wallet(KeyPair.generate(random.Random(1), bits=512))
        cheque = alice.write_cheque("bob", 300)
        ledger = Ledger()
        assert ledger.deposit(cheque)
        assert not ledger.deposit(cheque)  # same cheque again: no-op
        assert ledger.balance_of("bob") == 300
        assert not ledger.is_flagged(alice.name)

    def test_double_spend_detected(self):
        alice = Wallet(KeyPair.generate(random.Random(1), bits=512))
        honest = alice.write_cheque("bob", 300)
        cheat = alice.double_spend("carol", 300, serial=honest.serial)
        ledger = Ledger()
        assert ledger.deposit(honest)
        assert not ledger.deposit(cheat)
        assert ledger.is_flagged(alice.name)
        # Bob (first depositor) keeps his money.
        assert ledger.balance_of("bob") == 300
        assert ledger.balance_of("carol") == 0

    def test_ledger_merge_surfaces_double_spend(self):
        """Two postboxes each saw one half of a double-spend."""
        alice = Wallet(KeyPair.generate(random.Random(1), bits=512))
        honest = alice.write_cheque("bob", 300)
        cheat = alice.double_spend("carol", 300, serial=honest.serial)
        ledger_a, ledger_b = Ledger(), Ledger()
        assert ledger_a.deposit(honest)
        assert ledger_b.deposit(cheat)
        assert not ledger_a.is_flagged(alice.name)
        assert not ledger_b.is_flagged(alice.name)
        ledger_a.merge(ledger_b)
        assert ledger_a.is_flagged(alice.name)


class TestDirectory:
    def test_rendezvous_deterministic(self, world):
        city, _, __ = world
        a = rendezvous_building(city, "alice", replicas=3)
        b = rendezvous_building(city, "alice", replicas=3)
        assert a == b
        assert len(set(a)) == 3

    def test_rendezvous_distributes(self, world):
        city, _, __ = world
        homes = {rendezvous_building(city, f"user-{i}")[0] for i in range(60)}
        assert len(homes) > 20  # names spread across many buildings

    def test_rendezvous_validation(self, world):
        city, _, __ = world
        with pytest.raises(ValueError):
            rendezvous_building(city, "x", replicas=0)

    def test_record_authenticity(self, world):
        city, _, __ = world
        owner = KeyPair.generate(random.Random(2), bits=512)
        address = PostboxAddress.for_key(owner.public, city.buildings[0].id)
        record = DirectoryRecord.create(owner, address, sequence=1)
        assert record.is_authentic()

    def test_record_wrong_key_rejected(self, world):
        city, _, __ = world
        owner = KeyPair.generate(random.Random(2), bits=512)
        other = KeyPair.generate(random.Random(3), bits=512)
        address = PostboxAddress.for_key(owner.public, city.buildings[0].id)
        with pytest.raises(ValueError):
            DirectoryRecord.create(other, address, sequence=1)

    def test_node_rejects_stale_sequence(self, world):
        city, _, __ = world
        owner = KeyPair.generate(random.Random(2), bits=512)
        addr1 = PostboxAddress.for_key(owner.public, city.buildings[0].id)
        addr2 = PostboxAddress.for_key(owner.public, city.buildings[1].id)
        node = DirectoryNode(building_id=1)
        assert node.publish(DirectoryRecord.create(owner, addr2, sequence=2))
        assert not node.publish(DirectoryRecord.create(owner, addr1, sequence=1))
        assert node.lookup(addr1.name).address.building_id == city.buildings[1].id

    def test_publish_lookup_roundtrip(self, world):
        city, _, __ = world
        directory = Directory(city=city, replicas=2)
        owner = KeyPair.generate(random.Random(2), bits=512)
        address = PostboxAddress.for_key(owner.public, city.buildings[5].id)
        stored = directory.publish(DirectoryRecord.create(owner, address, sequence=1))
        assert len(stored) == 2
        found = directory.lookup(address.name)
        assert found is not None
        assert found.address == address

    def test_lookup_unknown_name(self, world):
        city, _, __ = world
        assert Directory(city=city).lookup("deadbeef") is None

    def test_update_moves_postbox(self, world):
        city, _, __ = world
        directory = Directory(city=city, replicas=2)
        owner = KeyPair.generate(random.Random(2), bits=512)
        addr1 = PostboxAddress.for_key(owner.public, city.buildings[0].id)
        addr2 = PostboxAddress.for_key(owner.public, city.buildings[9].id)
        directory.publish(DirectoryRecord.create(owner, addr1, sequence=1))
        directory.publish(DirectoryRecord.create(owner, addr2, sequence=2))
        assert directory.lookup(addr1.name).address.building_id == city.buildings[9].id
