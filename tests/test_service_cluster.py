"""Multi-worker cluster tests: affinity, forwarding, wakes, drains.

Everything the single-process suite proves must survive the fan-out to
OS worker processes: requests landing on any worker reach the owner's
home worker, pushes wake streams wherever the kernel routed them, and
the exactly-once confirm audit holds when the producer, the stream,
and the checker all arrive over *different* TCP connections (and so,
usually, different workers).

The supervisor tests fork real processes and talk real TCP, so they
keep the workloads small; the forwarding window test drives the
:class:`~repro.service.ipc.PeerLink` protocol in-process.
"""

import asyncio
import base64
import contextlib
import os
import re
import signal
import socket
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest

from repro.service import (
    ClusterConfig,
    ClusterSupervisor,
    DFNServer,
    ForwardOverloadedError,
    PushStreamClient,
    ServiceApp,
    ServiceClient,
    home_worker,
)
from repro.service.ipc import PeerLink

REPO = Path(__file__).resolve().parent.parent


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


@contextlib.contextmanager
def _cluster(n_workers: int, force_fdpass: bool = False, **config):
    supervisor = ClusterSupervisor(
        ClusterConfig(n_workers=n_workers, **config),
        port=0,
        force_fdpass=force_fdpass,
    )
    supervisor.start()
    clean_exit = None
    try:
        yield supervisor
        supervisor.stop()
        clean_exit = supervisor.wait(timeout=20)
    finally:
        if clean_exit is None:  # test body raised: don't mask its error
            supervisor.stop()
            supervisor.wait(timeout=20)
    assert clean_exit == 0


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


# ---------------------------------------------------------------------------
# basic cluster routing


@pytest.mark.parametrize("force_fdpass", [False, True], ids=["reuseport", "fdpass"])
def test_cluster_roundtrip_and_replication(force_fdpass):
    """Owner-keyed requests work from any connection; geocast and
    directory publishes are visible from every worker."""

    async def body(port: int) -> None:
        health = await _wait_ready(port)
        assert health["workers"] == 2

        owner = "phone-00042"
        payload = _b64(b"cross-worker")
        # Three separate connections: the kernel (or the round-robin
        # parent) is free to land each on a different worker.
        send_client = ServiceClient("127.0.0.1", port)
        check_client = ServiceClient("127.0.0.1", port)
        status, out = await send_client.request(
            "POST",
            "/v1/postbox/send",
            {"owner": owner, "payload": payload, "now_s": 1.0},
        )
        assert status == 200 and out["msg_id"] == 1
        status, out = await check_client.request(
            "POST",
            "/v1/postbox/check",
            {"owner": owner, "x": 0.0, "y": 0.0, "now_s": 2.0},
        )
        assert status == 200
        assert [m["msg_id"] for m in out["messages"]] == [1]

        # Replication: one publish, then polls from many fresh
        # connections must all see it, whichever worker answers.
        status, out = await send_client.request(
            "POST",
            "/v1/geocast/publish",
            {
                "x": 50.0,
                "y": 50.0,
                "radius": 200.0,
                "payload": payload,
                "now_s": 1.0,
            },
        )
        assert status == 200
        geocast_id = out["geocast_id"]
        answered_by = set()
        for _ in range(6):
            poll_client = ServiceClient("127.0.0.1", port)
            status, out = await poll_client.request(
                "POST",
                "/v1/geocast/poll",
                {"x": 50.0, "y": 50.0, "now_s": 2.0},
            )
            assert status == 200
            assert [m["geocast_id"] for m in out["messages"]] == [geocast_id]
            _, health = await poll_client.request("GET", "/v1/healthz")
            answered_by.add(health["worker"])
            await poll_client.close()
        assert answered_by  # at least one worker answered; often both

        await send_client.close()
        await check_client.close()

    with _cluster(2, force_fdpass=force_fdpass) as supervisor:
        assert supervisor.fdpass is force_fdpass
        asyncio.run(body(supervisor.port))


def test_cluster_worker_affine_connect():
    """prefer_worker redials until the kernel lands the connection on
    the requested worker — the loadgen zero-hop affinity primitive."""

    async def body(port: int) -> None:
        await _wait_ready(port)
        for target in (0, 1):
            client = ServiceClient(
                "127.0.0.1", port, prefer_worker=target, connect_attempts=64
            )
            _, health = await client.request("GET", "/v1/healthz")
            assert health["worker"] == target
            await client.close()

    with _cluster(2) as supervisor:
        asyncio.run(body(supervisor.port))


# ---------------------------------------------------------------------------
# exactly-once under cross-worker confirms


def test_cluster_exactly_once_with_cross_worker_confirms():
    """The PR 4 audit, clustered: producer, pusher, and checker for
    each owner arrive over independent connections, so confirms and
    checks routinely execute on a non-home worker and take the
    forwarding path.  Every message must still be received exactly
    once, and every duplicate confirm refused."""

    n_workers = 4
    n_owners = 8
    n_msgs = 15
    receipts: Counter = Counter()
    duplicate_confirms: Counter = Counter()

    async def drive(port: int, owner: str) -> None:
        producer_c = ServiceClient("127.0.0.1", port)
        pusher_c = ServiceClient("127.0.0.1", port)
        checker_c = ServiceClient("127.0.0.1", port)
        try:
            # Cache a location so urgent deliveries create push records.
            await checker_c.request(
                "POST",
                "/v1/postbox/check",
                {"owner": owner, "x": 0.0, "y": 0.0, "now_s": 0.0},
            )
            produced = asyncio.Event()

            async def producer() -> None:
                for i in range(n_msgs):
                    status, _ = await producer_c.request(
                        "POST",
                        "/v1/postbox/send",
                        {
                            "owner": owner,
                            "payload": _b64(f"{owner}:{i}".encode()),
                            "urgent": True,
                            "now_s": float(i + 1),
                        },
                    )
                    assert status == 200
                produced.set()

            async def pusher() -> None:
                while True:
                    status, out = await pusher_c.request(
                        "POST", "/v1/postbox/pushes", {"owner": owner}
                    )
                    assert status == 200
                    for push in out["pushes"]:
                        msg_id = push["msg_id"]
                        _, first = await pusher_c.request(
                            "POST",
                            "/v1/postbox/confirm",
                            {"owner": owner, "msg_id": msg_id},
                        )
                        if first["confirmed"]:
                            receipts[(owner, msg_id)] += 1
                        _, second = await pusher_c.request(
                            "POST",
                            "/v1/postbox/confirm",
                            {"owner": owner, "msg_id": msg_id},
                        )
                        if second["confirmed"]:
                            duplicate_confirms[(owner, msg_id)] += 1
                    if produced.is_set() and not out["pushes"]:
                        return
                    await asyncio.sleep(0)

            async def checker() -> None:
                while not produced.is_set():
                    _, out = await checker_c.request(
                        "POST",
                        "/v1/postbox/check",
                        {
                            "owner": owner,
                            "x": 0.0,
                            "y": 0.0,
                            "now_s": float(n_msgs + 1),
                        },
                    )
                    for message in out["messages"]:
                        receipts[(owner, message["msg_id"])] += 1
                    await asyncio.sleep(0)

            await asyncio.gather(producer(), pusher(), checker())
            # Final drain of both paths.
            _, out = await pusher_c.request(
                "POST", "/v1/postbox/pushes", {"owner": owner}
            )
            for push in out["pushes"]:
                _, confirmed = await pusher_c.request(
                    "POST",
                    "/v1/postbox/confirm",
                    {"owner": owner, "msg_id": push["msg_id"]},
                )
                if confirmed["confirmed"]:
                    receipts[(owner, push["msg_id"])] += 1
            _, out = await checker_c.request(
                "POST",
                "/v1/postbox/check",
                {"owner": owner, "x": 0.0, "y": 0.0, "now_s": float(n_msgs + 2)},
            )
            for message in out["messages"]:
                receipts[(owner, message["msg_id"])] += 1
        finally:
            await producer_c.close()
            await pusher_c.close()
            await checker_c.close()

    async def body(port: int) -> None:
        await _wait_ready(port)
        owners = [f"phone-{i:03d}" for i in range(n_owners)]
        # The audit really does span home workers.
        assert len({home_worker(o, n_workers) for o in owners}) > 1
        await asyncio.gather(*(drive(port, o) for o in owners))

        for owner in owners:
            ids = sorted(i for (o, i) in receipts if o == owner)
            assert ids == list(range(1, n_msgs + 1)), owner
        assert all(count == 1 for count in receipts.values())
        assert not duplicate_confirms
        # Nothing left pending anywhere: every owner's final check is
        # empty (receipts above consumed the lot exactly once).
        for owner in owners:
            client = ServiceClient("127.0.0.1", port)
            _, out = await client.request(
                "POST",
                "/v1/postbox/check",
                {"owner": owner, "x": 0.0, "y": 0.0, "now_s": float(n_msgs + 3)},
            )
            assert out["messages"] == []
            await client.close()

    with _cluster(n_workers) as supervisor:
        asyncio.run(body(supervisor.port))


# ---------------------------------------------------------------------------
# wake-on-delivery


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


def test_cluster_wake_crosses_workers():
    """A stream parked on any worker is woken by a delivery accepted
    anywhere — the watch/wake frames carry it home and back."""

    async def body(port: int) -> None:
        await _wait_ready(port)
        owner = "phone-07777"
        client = ServiceClient("127.0.0.1", port)
        await client.request(
            "POST",
            "/v1/postbox/check",
            {"owner": owner, "x": 0.0, "y": 0.0, "now_s": 0.0},
        )
        # Several streams in sequence: fresh connections scatter over
        # workers, so some runs exercise the remote-watch path.
        for round_no in range(3):
            stream = PushStreamClient("127.0.0.1", port, owner=owner)
            await stream.connect()
            t0 = time.perf_counter()
            status, out = await client.request(
                "POST",
                "/v1/postbox/send",
                {
                    "owner": owner,
                    "payload": _b64(b"wake"),
                    "urgent": True,
                    "now_s": float(round_no + 1),
                },
            )
            assert status == 200
            push = await stream.next_push(timeout_s=5.0)
            elapsed = time.perf_counter() - t0
            assert push["msg_id"] == out["msg_id"]
            # Cluster fallback is 0.5 s; wake delivery is milliseconds.
            assert elapsed < 0.4, f"push took {elapsed:.3f}s — wake lost?"
            assert await stream.confirm(push["msg_id"]) is True
            await stream.close()
        await client.close()

    with _cluster(3) as supervisor:
        asyncio.run(body(supervisor.port))


# ---------------------------------------------------------------------------
# the forwarding window


def test_forward_window_overflow_is_typed():
    """A saturated peer link rejects with ForwardOverloadedError (the
    HTTP layer maps it to 503 forward_overloaded) instead of queueing."""

    async def body() -> None:
        end_a, end_b = socket.socketpair()
        release = asyncio.Event()

        async def slow_handler(frame: dict) -> dict:
            await release.wait()
            return {"ok": True}

        async def echo_handler(frame: dict) -> dict:
            return {}

        link_a = PeerLink(1, end_a, echo_handler, max_in_flight=1)
        link_b = PeerLink(0, end_b, slow_handler)
        await link_a.start()
        await link_b.start()
        try:
            first = asyncio.create_task(link_a.request({"t": "req"}))
            await asyncio.sleep(0.05)  # let the first frame occupy the window
            with pytest.raises(ForwardOverloadedError) as excinfo:
                await link_a.request({"t": "req"})
            assert excinfo.value.status == 503
            assert excinfo.value.code == "forward_overloaded"
            release.set()
            result = await first
            assert result["ok"] is True
        finally:
            await link_a.close()
            await link_b.close()

    asyncio.run(body())


# ---------------------------------------------------------------------------
# graceful drain


def test_cluster_graceful_drain_flushes_streams():
    """stop() mid-traffic: the open push stream gets its pending push
    and a clean ``bye`` line, and every worker exits 0 (asserted by the
    _cluster fixture)."""

    async def body(supervisor: ClusterSupervisor) -> None:
        port = supervisor.port
        await _wait_ready(port)
        owner = "phone-00123"
        client = ServiceClient("127.0.0.1", port)
        await client.request(
            "POST",
            "/v1/postbox/check",
            {"owner": owner, "x": 0.0, "y": 0.0, "now_s": 0.0},
        )
        stream = PushStreamClient("127.0.0.1", port, owner=owner)
        await stream.connect()
        status, out = await client.request(
            "POST",
            "/v1/postbox/send",
            {"owner": owner, "payload": _b64(b"last words"), "urgent": True,
             "now_s": 1.0},
        )
        assert status == 200
        push = await stream.next_push(timeout_s=5.0)
        assert await stream.confirm(push["msg_id"]) is True

        supervisor.stop()
        # The stream must end with a clean bye, not a reset.
        saw_bye = False
        with contextlib.suppress(ConnectionError):
            for _ in range(20):
                event = await asyncio.wait_for(stream._next_event(), timeout=10.0)
                if event.get("type") == "bye":
                    saw_bye = True
                    break
        assert saw_bye
        await stream.close()
        await client.close()

    with _cluster(2) as supervisor:
        asyncio.run(body(supervisor))


@pytest.mark.parametrize("workers", [1, 2], ids=["single", "cluster"])
def test_serve_sigterm_exits_zero_with_open_stream(workers, tmp_path):
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
            str(workers),
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
