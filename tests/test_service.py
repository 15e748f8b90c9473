"""Endpoint smoke tests for the always-on service layer.

Everything here drives :meth:`repro.service.ServiceApp.dispatch`
through :class:`InProcessClient` — request bytes in, (status, payload)
out, no sockets anywhere — except the TCP tests at the bottom that
exercise the real HTTP/1.1 server and the NDJSON push stream over an
ephemeral loopback port, and a real ``repro serve`` process under
SIGTERM.

The stdlib-only constraint shapes the idiom: tests are synchronous
functions that run their async body with ``asyncio.run``.
"""

import asyncio
import base64
import contextlib
import os
import random
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.apps import DirectoryRecord
from repro.cli import main
from repro.geometry import Point
from repro.postbox import KeyPair, Postbox, PostboxAddress
from repro.service import (
    DFNServer,
    GeocastBoard,
    InProcessClient,
    PushStreamClient,
    ServiceApp,
    ServiceClient,
    build_app,
    generate_trace,
    run_loadgen,
)
from repro.scenario import make_scenario

REPO = Path(__file__).resolve().parent.parent


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _app(**kwargs) -> ServiceApp:
    return ServiceApp(**kwargs)


async def _started(app: ServiceApp) -> InProcessClient:
    await app.start()
    return InProcessClient(app)


# ---------------------------------------------------------------------------
# postbox endpoints


def test_send_check_roundtrip():
    async def body():
        app = _app()
        client = await _started(app)
        try:
            status, out = await client.request(
                "POST",
                "/v1/postbox/send",
                {"owner": "bob", "payload": _b64(b"hello"), "now_s": 1.0},
            )
            assert status == 200 and out["msg_id"] == 1
            status, out = await client.request(
                "POST",
                "/v1/postbox/send",
                {"owner": "bob", "payload": _b64(b"again"), "now_s": 2.0},
            )
            assert status == 200 and out["msg_id"] == 2

            status, out = await client.request(
                "POST",
                "/v1/postbox/check",
                {"owner": "bob", "x": 0.0, "y": 0.0, "now_s": 3.0},
            )
            assert status == 200
            payloads = [
                base64.b64decode(m["payload"]) for m in out["messages"]
            ]
            assert payloads == [b"hello", b"again"]

            status, out = await client.request(
                "POST",
                "/v1/postbox/check",
                {"owner": "bob", "x": 0.0, "y": 0.0, "now_s": 4.0},
            )
            assert status == 200 and out["messages"] == []
        finally:
            await app.close()

    asyncio.run(body())


def test_urgent_push_confirm_exactly_once():
    async def body():
        app = _app()
        client = await _started(app)
        try:
            # A check caches the location; only then do urgent sends push.
            await client.request(
                "POST",
                "/v1/postbox/check",
                {"owner": "eve", "x": 5.0, "y": 5.0, "now_s": 0.0},
            )
            status, out = await client.request(
                "POST",
                "/v1/postbox/send",
                {
                    "owner": "eve",
                    "payload": _b64(b"urgent!"),
                    "urgent": True,
                    "now_s": 1.0,
                },
            )
            assert status == 200
            msg_id = out["msg_id"]

            status, out = await client.request(
                "POST", "/v1/postbox/pushes", {"owner": "eve"}
            )
            assert status == 200
            assert [p["msg_id"] for p in out["pushes"]] == [msg_id]

            status, out = await client.request(
                "POST",
                "/v1/postbox/confirm",
                {"owner": "eve", "msg_id": msg_id},
            )
            assert status == 200 and out["confirmed"] is True

            # Second confirm of the same id: refused with a typed 409
            # (exactly once) — a retrying client can tell "my confirm
            # already landed" from a transport failure.
            status, out = await client.request(
                "POST",
                "/v1/postbox/confirm",
                {"owner": "eve", "msg_id": msg_id},
            )
            assert status == 409
            assert out["error"] == "confirm_refused"
            assert out["confirmed"] is False

            # The confirmed message never comes back on a check.
            status, out = await client.request(
                "POST",
                "/v1/postbox/check",
                {"owner": "eve", "x": 5.0, "y": 5.0, "now_s": 2.0},
            )
            assert status == 200 and out["messages"] == []
        finally:
            await app.close()

    asyncio.run(body())


def test_unconfirmed_push_still_retrievable():
    async def body():
        app = _app()
        client = await _started(app)
        try:
            await client.request(
                "POST",
                "/v1/postbox/check",
                {"owner": "amy", "x": 0.0, "y": 0.0, "now_s": 0.0},
            )
            await client.request(
                "POST",
                "/v1/postbox/send",
                {
                    "owner": "amy",
                    "payload": _b64(b"push-lost"),
                    "urgent": True,
                    "now_s": 1.0,
                },
            )
            # The push record is taken but never confirmed (the push
            # failed in transit): the stored copy is the safety net.
            await client.request("POST", "/v1/postbox/pushes", {"owner": "amy"})
            status, out = await client.request(
                "POST",
                "/v1/postbox/check",
                {"owner": "amy", "x": 0.0, "y": 0.0, "now_s": 2.0},
            )
            assert status == 200
            assert [base64.b64decode(m["payload"]) for m in out["messages"]] == [
                b"push-lost"
            ]
        finally:
            await app.close()

    asyncio.run(body())


def test_postbox_full_is_typed_429():
    async def body():
        app = _app(capacity=2)
        client = await _started(app)
        try:
            for i in range(2):
                status, _ = await client.request(
                    "POST",
                    "/v1/postbox/send",
                    {"owner": "sam", "payload": _b64(b"x"), "now_s": float(i)},
                )
                assert status == 200
            status, out = await client.request(
                "POST",
                "/v1/postbox/send",
                {"owner": "sam", "payload": _b64(b"x"), "now_s": 3.0},
            )
            assert status == 429
            assert out["error"] == "postbox_full"
            assert out["owner"] == "sam"
        finally:
            await app.close()

    asyncio.run(body())


def test_shard_queue_overload_is_503():
    async def body():
        # One shard, a two-deep queue: more simultaneous submissions
        # than the queue holds must reject with typed backpressure
        # before the writer gets a chance to drain.
        app = _app(n_shards=1, queue_limit=2)
        client = await _started(app)
        try:
            results = await asyncio.gather(
                *(
                    client.request(
                        "POST",
                        "/v1/postbox/send",
                        {"owner": "kim", "payload": _b64(b"x"), "now_s": 1.0},
                    )
                    for _ in range(6)
                )
            )
            statuses = sorted(status for status, _ in results)
            assert 503 in statuses
            assert set(statuses) <= {200, 503}
            overloaded = next(out for s, out in results if s == 503)
            assert overloaded["error"] == "shard_overloaded"
        finally:
            await app.close()

    asyncio.run(body())


def test_closed_store_rejects_new_work():
    async def body():
        app = _app()
        client = await _started(app)
        await app.close()
        status, out = await client.request(
            "POST",
            "/v1/postbox/send",
            {"owner": "bob", "payload": _b64(b"x"), "now_s": 1.0},
        )
        assert status == 503 and out["error"] == "shard_overloaded"

    asyncio.run(body())


# ---------------------------------------------------------------------------
# request validation and routing


def test_malformed_requests_are_400():
    async def body():
        app = _app()
        await app.start()
        try:
            status, out = await app.dispatch(
                "POST", "/v1/postbox/send", b"{not json"
            )
            assert status == 400 and out["error"] == "bad_request"

            status, out = await app.dispatch("POST", "/v1/postbox/send", b"[1]")
            assert status == 400

            client = InProcessClient(app)
            # Missing required field.
            status, out = await client.request(
                "POST", "/v1/postbox/send", {"payload": _b64(b"x")}
            )
            assert status == 400 and "owner" in out["detail"]
            # Wrong type.
            status, out = await client.request(
                "POST",
                "/v1/postbox/send",
                {"owner": 7, "payload": _b64(b"x")},
            )
            assert status == 400
            # Invalid base64.
            status, out = await client.request(
                "POST",
                "/v1/postbox/send",
                {"owner": "bob", "payload": "not base64!!"},
            )
            assert status == 400 and "base64" in out["detail"]
        finally:
            await app.close()

    asyncio.run(body())


def test_unknown_route_and_wrong_method():
    async def body():
        app = _app()
        await app.start()
        try:
            status, out = await app.dispatch("POST", "/v1/nope", b"")
            assert status == 404 and out["error"] == "not_found"
            status, out = await app.dispatch("GET", "/v1/postbox/send", b"")
            assert status == 405 and out["error"] == "method_not_allowed"
        finally:
            await app.close()

    asyncio.run(body())


def test_healthz_and_stats():
    async def body():
        app = _app()
        client = await _started(app)
        try:
            status, out = await client.request("GET", "/v1/healthz")
            assert status == 200 and out == {"ok": True, "started": True}

            await client.request(
                "POST",
                "/v1/postbox/send",
                {"owner": "bob", "payload": _b64(b"x"), "now_s": 1.0},
            )
            status, out = await client.request("GET", "/v1/stats")
            assert status == 200
            assert out["store"]["pending_total"] == 1
            assert out["store"]["owners"] == 1
            assert "service.req.postbox.send" in out["metrics"]["counters"]
        finally:
            await app.close()

    asyncio.run(body())


# ---------------------------------------------------------------------------
# geocast endpoints


def test_geocast_publish_poll_and_expiry():
    async def body():
        app = _app()
        client = await _started(app)
        try:
            status, out = await client.request(
                "POST",
                "/v1/geocast/publish",
                {
                    "x": 100.0,
                    "y": 100.0,
                    "radius": 200.0,
                    "payload": _b64(b"shelter here"),
                    "ttl_s": 60.0,
                    "now_s": 0.0,
                },
            )
            assert status == 200
            geocast_id = out["geocast_id"]

            status, out = await client.request(
                "POST",
                "/v1/geocast/poll",
                {"x": 150.0, "y": 150.0, "now_s": 10.0},
            )
            assert status == 200
            assert [m["geocast_id"] for m in out["messages"]] == [geocast_id]

            # Outside the disc: nothing.
            status, out = await client.request(
                "POST",
                "/v1/geocast/poll",
                {"x": 900.0, "y": 900.0, "now_s": 10.0},
            )
            assert status == 200 and out["messages"] == []

            # Past the TTL: nothing.
            status, out = await client.request(
                "POST",
                "/v1/geocast/poll",
                {"x": 150.0, "y": 150.0, "now_s": 100.0},
            )
            assert status == 200 and out["messages"] == []

            # Unbounded radius is refused up front.
            status, out = await client.request(
                "POST",
                "/v1/geocast/publish",
                {
                    "x": 0.0,
                    "y": 0.0,
                    "radius": 1e9,
                    "payload": _b64(b"x"),
                    "now_s": 0.0,
                },
            )
            assert status == 400
        finally:
            await app.close()

    asyncio.run(body())


def test_geocast_board_full_is_429():
    async def body():
        app = _app(board=GeocastBoard(max_messages=2))
        client = await _started(app)
        try:
            for _ in range(2):
                status, _ = await client.request(
                    "POST",
                    "/v1/geocast/publish",
                    {
                        "x": 0.0,
                        "y": 0.0,
                        "radius": 100.0,
                        "payload": _b64(b"x"),
                        "now_s": 0.0,
                    },
                )
                assert status == 200
            status, out = await client.request(
                "POST",
                "/v1/geocast/publish",
                {
                    "x": 0.0,
                    "y": 0.0,
                    "radius": 100.0,
                    "payload": _b64(b"x"),
                    "now_s": 1.0,
                },
            )
            assert status == 429 and out["error"] == "geocast_board_full"
        finally:
            await app.close()

    asyncio.run(body())


def test_geocast_full_board_clears_after_expiry_without_polls():
    """A full board un-fills itself: once the resident messages' TTLs
    lapse, the *publish-time* sweep reclaims the slots — no poll ever
    touches the board between the 429 and the recovering 200."""

    from repro.obs import REGISTRY

    async def body():
        app = _app(board=GeocastBoard(max_messages=2))
        client = await _started(app)
        expired = REGISTRY.counter("geoboard.expired")
        scans = REGISTRY.counter("geoboard.scan")
        expired_before = expired.value
        scans_before = scans.value
        try:
            publish = {
                "x": 0.0,
                "y": 0.0,
                "radius": 100.0,
                "payload": _b64(b"x"),
                "ttl_s": 10.0,
            }
            for _ in range(2):
                status, _ = await client.request(
                    "POST", "/v1/geocast/publish", {**publish, "now_s": 0.0}
                )
                assert status == 200
            status, out = await client.request(
                "POST", "/v1/geocast/publish", {**publish, "now_s": 1.0}
            )
            assert status == 429 and out["error"] == "geocast_board_full"

            # Past both TTLs, with no poll in between: the publish
            # itself sweeps the heap and finds room.
            status, out = await client.request(
                "POST", "/v1/geocast/publish", {**publish, "now_s": 11.0}
            )
            assert status == 200
            assert expired.value - expired_before == 2
            # The sweep is heap-ordered, not a table scan: it touched
            # exactly the expired entries (plus one peek that stays).
            assert scans.value - scans_before <= 3

            status, out = await client.request(
                "POST",
                "/v1/geocast/poll",
                {"x": 0.0, "y": 0.0, "now_s": 12.0},
            )
            assert status == 200
            assert [m["geocast_id"] for m in out["messages"]] == [3]
        finally:
            await app.close()

    asyncio.run(body())


# ---------------------------------------------------------------------------
# directory endpoints


def test_directory_publish_lookup_roundtrip():
    async def body():
        app = build_app(city_name="gridport", seed=0)
        client = await _started(app)
        try:
            rng = random.Random(7)
            keypair = KeyPair.generate(rng, bits=512)
            address = PostboxAddress.for_key(
                keypair.public, app.city.buildings[0].id
            )
            record = DirectoryRecord.create(keypair, address, sequence=1)

            status, out = await client.request(
                "POST",
                "/v1/directory/publish",
                {
                    "address": _b64(address.to_bytes()),
                    "sequence": record.sequence,
                    "signature": _b64(record.signature),
                },
            )
            assert status == 200 and out["stored"] > 0

            status, out = await client.request(
                "POST", "/v1/directory/lookup", {"name": address.name}
            )
            assert status == 200
            assert base64.b64decode(out["address"]) == address.to_bytes()

            status, out = await client.request(
                "POST", "/v1/directory/lookup", {"name": "nobody"}
            )
            assert status == 404 and out["error"] == "not_found"

            # A forged signature never lands in the directory.
            status, out = await client.request(
                "POST",
                "/v1/directory/publish",
                {
                    "address": _b64(address.to_bytes()),
                    "sequence": record.sequence + 1,
                    "signature": _b64(b"\x00" * len(record.signature)),
                },
            )
            assert status == 400
        finally:
            await app.close()

    asyncio.run(body())


def test_directory_requires_a_city():
    async def body():
        app = _app()  # no city map
        client = await _started(app)
        try:
            status, out = await client.request(
                "POST", "/v1/directory/lookup", {"name": "anyone"}
            )
            assert status == 400 and "city map" in out["detail"]
        finally:
            await app.close()

    asyncio.run(body())


# ---------------------------------------------------------------------------
# the refactored postbox store


def test_postbox_confirm_by_wire_id():
    box = Postbox(owner_name="bob")
    box.check(0.0, Point(0.0, 0.0))
    message = box.deliver_message(b"urgent", now_s=1.0, urgent=True)
    assert message is not None and message.msg_id == 1
    assert box.confirm_push_id(message.msg_id) is True
    assert box.confirm_push_id(message.msg_id) is False
    assert box.check(2.0, Point(0.0, 0.0)) == []


def test_postbox_expiry_pops_only_the_stale_prefix():
    box = Postbox(owner_name="bob", retention_s=10.0)
    for t in (0.0, 1.0, 8.0):
        assert box.deliver(b"m", now_s=t)
    # now=12: cutoff 2.0 — the first two expire, the third survives.
    assert box.expire(12.0) == 2
    assert box.pending_count() == 1
    assert box.expire(12.0) == 0


# ---------------------------------------------------------------------------
# load generator


def test_loadgen_trace_is_deterministic():
    spec = make_scenario("river-flood", seed=3)
    first = generate_trace(spec, phones=12)
    second = generate_trace(spec, phones=12)
    assert first.to_json() == second.to_json()
    assert len(first.requests) > 0
    counts = first.kind_counts()
    assert counts["check"] == 12 * spec.epochs
    assert counts["directory_publish"] == 8
    # A different seed moves the trace.
    other = generate_trace(make_scenario("river-flood", seed=4), phones=12)
    assert other.to_json() != first.to_json()


def test_loadgen_inprocess_replay_is_clean():
    async def body():
        spec = make_scenario("river-flood", seed=0)
        trace = generate_trace(spec, phones=16)
        app = build_app(city_name=spec.world.city_name, seed=0)
        await app.start()
        try:
            report = await run_loadgen(
                trace, lambda: InProcessClient(app), connections=4
            )
        finally:
            await app.close()
        assert report.errors == 0
        assert report.rejects == 0
        assert report.confirms > 0  # the trace exercises push-confirm
        # Everything succeeds except the occasional typed confirm
        # refusal: a message a check delivered while its push record
        # was still in the forwarder queue gets its late closed-loop
        # confirm refused — the exactly-once guarantee, not a failure.
        assert set(report.status_counts) <= {200, 409}
        assert report.status_counts.get(409, 0) <= report.confirms
        # Timed requests = trace minus the serial directory prelude,
        # plus the push confirms the closed loop issued.
        prelude = trace.kind_counts()["directory_publish"]
        assert report.requests == len(trace.requests) - prelude + report.confirms

    asyncio.run(body())


def test_cli_loadgen_dump_trace_determinism(tmp_path, capsys):
    first = tmp_path / "a.json"
    second = tmp_path / "b.json"
    for path in (first, second):
        assert main(
            [
                "loadgen",
                "river-flood",
                "--phones",
                "6",
                "--dump-trace",
                str(path),
            ]
        ) == 0
    capsys.readouterr()
    assert first.read_bytes() == second.read_bytes()


def test_cli_loadgen_inprocess_json(capsys):
    import json

    assert main(
        [
            "loadgen",
            "river-flood",
            "--phones",
            "6",
            "--connections",
            "2",
            "--json",
        ]
    ) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["report"]["errors"] == 0
    assert out["report"]["requests"] > 0


# ---------------------------------------------------------------------------
# the real TCP server and the push stream


def test_tcp_server_and_push_stream():
    async def body():
        app = _app()
        server = DFNServer(app, port=0, push_poll_interval_s=0.01)
        await server.start()
        try:
            client = ServiceClient("127.0.0.1", server.port)
            status, out = await client.request("GET", "/v1/healthz")
            assert status == 200 and out["ok"] is True

            # Keep-alive: a second request on the same connection.
            status, _ = await client.request(
                "POST",
                "/v1/postbox/check",
                {"owner": "bob", "x": 1.0, "y": 1.0, "now_s": 0.0},
            )
            assert status == 200

            stream = PushStreamClient("127.0.0.1", server.port, owner="bob")
            await stream.connect()

            status, out = await client.request(
                "POST",
                "/v1/postbox/send",
                {
                    "owner": "bob",
                    "payload": _b64(b"over the wire"),
                    "urgent": True,
                    "now_s": 1.0,
                },
            )
            assert status == 200
            msg_id = out["msg_id"]

            push = await stream.next_push(timeout_s=5.0)
            assert push["msg_id"] == msg_id
            assert base64.b64decode(push["payload"]) == b"over the wire"
            assert await stream.confirm(msg_id) is True
            assert await stream.confirm(msg_id) is False

            # Confirmed: the message is gone from the pending set.
            status, out = await client.request(
                "POST",
                "/v1/postbox/check",
                {"owner": "bob", "x": 1.0, "y": 1.0, "now_s": 2.0},
            )
            assert status == 200 and out["messages"] == []

            await stream.close()
            await client.close()
        finally:
            await server.close()

    asyncio.run(body())


async def _wait_ready(port: int, attempts: int = 200) -> dict:
    last: Exception | None = None
    for _ in range(attempts):
        client = ServiceClient("127.0.0.1", port)
        try:
            status, out = await client.request("GET", "/v1/healthz")
            if status == 200 and out.get("started"):
                return out
        except OSError as exc:
            last = exc
        finally:
            await client.close()
        await asyncio.sleep(0.05)
    raise AssertionError(f"service never became ready: {last}")


def test_wake_on_delivery_single_process():
    """With the safety-net poll set absurdly high, a push can only
    arrive promptly via the delivery wake — so prompt arrival proves
    the wake path, not the poll."""

    async def body() -> None:
        app = ServiceApp()
        server = DFNServer(app, port=0, push_poll_interval_s=30.0)
        await server.start()
        try:
            client = ServiceClient("127.0.0.1", server.port)
            await client.request(
                "POST",
                "/v1/postbox/check",
                {"owner": "bob", "x": 0.0, "y": 0.0, "now_s": 0.0},
            )
            stream = PushStreamClient("127.0.0.1", server.port, owner="bob")
            await stream.connect()
            t0 = time.perf_counter()
            await client.request(
                "POST",
                "/v1/postbox/send",
                {"owner": "bob", "payload": _b64(b"x"), "urgent": True, "now_s": 1.0},
            )
            push = await stream.next_push(timeout_s=5.0)
            elapsed = time.perf_counter() - t0
            assert push["msg_id"] == 1
            assert elapsed < 1.0, f"wake took {elapsed:.3f}s — poll fallback?"
            assert await stream.confirm(push["msg_id"]) is True
            await stream.close()
            await client.close()
        finally:
            await server.close()

    asyncio.run(body())


def test_serve_sigterm_exits_zero_with_open_stream(tmp_path):
    """``repro serve`` under SIGTERM with an open push stream and a
    keep-alive connection: confirmed pushes flush, the NDJSON stream
    ends with ``bye``, the process exits 0."""

    proc = subprocess.Popen(
        [
            sys.executable,
            "-m",
            "repro",
            "serve",
            "--port",
            "0",
            "--workers",
            "1",
        ],
        cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")},
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    try:
        ready = proc.stdout.readline()
        match = re.search(r"http://127\.0\.0\.1:(\d+)", ready)
        assert match, f"no ready line: {ready!r}"
        port = int(match.group(1))

        async def body() -> None:
            await _wait_ready(port)
            owner = "phone-00321"
            client = ServiceClient("127.0.0.1", port)
            await client.request(
                "POST",
                "/v1/postbox/check",
                {"owner": owner, "x": 0.0, "y": 0.0, "now_s": 0.0},
            )
            stream = PushStreamClient("127.0.0.1", port, owner=owner)
            await stream.connect()
            status, _ = await client.request(
                "POST",
                "/v1/postbox/send",
                {"owner": owner, "payload": _b64(b"x"), "urgent": True,
                 "now_s": 1.0},
            )
            assert status == 200
            push = await stream.next_push(timeout_s=5.0)
            assert await stream.confirm(push["msg_id"]) is True

            proc.send_signal(signal.SIGTERM)
            saw_bye = False
            with contextlib.suppress(ConnectionError):
                for _ in range(20):
                    event = await asyncio.wait_for(
                        stream._next_event(), timeout=10.0
                    )
                    if event.get("type") == "bye":
                        saw_bye = True
                        break
            assert saw_bye
            await stream.close()
            await client.close()

        asyncio.run(body())
        assert proc.wait(timeout=30) == 0
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait(timeout=10)
        proc.stdout.close()
