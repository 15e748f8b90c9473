"""The DFN service application: endpoint handlers over shared state.

``ServiceApp`` is the transport-independent core of the always-on
service: a dispatch table from ``(method, path)`` to async handlers
over the sharded postbox store, the geocast board, and the directory.
The HTTP layer (:mod:`repro.service.http`) is a thin byte-parsing
wrapper around :meth:`ServiceApp.dispatch`; tests and the in-process
load generator call :meth:`dispatch` directly through
:class:`InProcessClient` — the SNIPPETS endpoint-smoke idiom with no
sockets anywhere.

Every endpoint is instrumented through :mod:`repro.obs`: a request
counter, an error counter, and a latency histogram timer per endpoint
(``service.req.*`` / ``service.err.*`` / ``service.latency.*``), plus
a ``service.<endpoint>`` trace span when a trace sink is installed
(spans are skipped on the hot path otherwise — the service's p99 should
not pay for tracing nobody is collecting).

Wire conventions: request and response bodies are JSON objects; sealed
message payloads travel base64-encoded in the ``payload`` field (the
service stores opaque bytes — sealing and opening stay on the devices,
which is what makes a compromised postbox AP a nuisance, §3); requests
may carry an explicit ``now_s`` timestamp (the load generator replays
scenario time), falling back to the server's wall clock.
"""

from __future__ import annotations

import base64
import binascii
import json
import math
import time
from typing import Awaitable, Callable

from ..apps import Directory, DirectoryRecord
from ..city import City
from ..geometry import Point
from ..obs import REGISTRY, span, trace_enabled
from ..postbox import PostboxAddress, StoredMessage
from .errors import (
    BadRequestError,
    ConfirmRefusedError,
    NotFoundError,
    error_response,
)
from .geoboard import GeocastBoard
from .shards import ShardedPostboxStore

Handler = Callable[["ServiceApp", dict], Awaitable[dict]]

#: Endpoint table filled in by the ``@_route`` decorator below.
_ROUTES: dict[tuple[str, str], tuple[str, Handler]] = {}


def _route(method: str, path: str, name: str):
    def register(fn: Handler) -> Handler:
        _ROUTES[(method, path)] = (name, fn)
        return fn

    return register


def _finite(value: int | float, key: str) -> float:
    """A JSON number as a finite float (400 for NaN, ±Infinity, or an
    integer past the float range)."""
    try:
        value = float(value)
    except OverflowError:
        value = math.inf
    if not math.isfinite(value):
        raise BadRequestError(f"field {key!r} must be a finite number")
    return value


def _field(body: dict, key: str, kind: type, required: bool = True, default=None):
    """Fetch and type-check one request field (400 on violation)."""
    value = body.get(key, default)
    if value is None:
        if required:
            raise BadRequestError(f"missing field {key!r}")
        return None
    if kind is float and isinstance(value, (int, float)) and not isinstance(value, bool):
        return _finite(value, key)
    if kind is int and isinstance(value, int) and not isinstance(value, bool):
        return value
    if not isinstance(value, kind) or isinstance(value, bool):
        raise BadRequestError(f"field {key!r} must be {kind.__name__}")
    return value


def _payload_bytes(body: dict, key: str = "payload") -> bytes:
    raw = _field(body, key, str)
    try:
        return base64.b64decode(raw.encode("ascii"), validate=True)
    except (binascii.Error, UnicodeEncodeError):
        raise BadRequestError(f"field {key!r} must be base64") from None


def _b64(data: bytes) -> str:
    return base64.b64encode(data).decode("ascii")


def _message_dict(message: StoredMessage) -> dict:
    return {
        "msg_id": message.msg_id,
        "payload": _b64(message.sealed),
        "urgent": message.urgent,
        "arrival_s": message.arrival_time_s,
    }


class ServiceApp:
    """Shared service state plus the endpoint dispatch table."""

    def __init__(
        self,
        city: City | None = None,
        n_shards: int = 8,
        capacity: int = 1024,
        retention_s: float = 7 * 24 * 3600.0,
        queue_limit: int = 4096,
        directory_replicas: int = 2,
        board: GeocastBoard | None = None,
    ):
        self.city = city
        self.store = ShardedPostboxStore(
            n_shards=n_shards,
            capacity=capacity,
            retention_s=retention_s,
            queue_limit=queue_limit,
        )
        self.board = board if board is not None else GeocastBoard()
        self.directory = (
            Directory(city=city, replicas=directory_replicas)
            if city is not None
            else None
        )
        self._epoch = time.time()
        self._instruments: dict[str, tuple] = {}
        self.started = False

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Start the shard writers (idempotent)."""
        await self.store.start()
        self.started = True

    async def close(self) -> None:
        """Graceful shutdown: drain shard queues, stop writers."""
        await self.store.close()
        self.started = False

    def now_s(self, body: dict | None = None) -> float:
        """The request's clock: explicit ``now_s`` or server wall time."""
        if body is not None:
            value = body.get("now_s")
            if isinstance(value, (int, float)) and not isinstance(value, bool):
                return _finite(value, "now_s")
        return time.time() - self._epoch

    # -- dispatch -------------------------------------------------------
    def _instrument(self, name: str):
        found = self._instruments.get(name)
        if found is None:
            found = (
                REGISTRY.counter(f"service.req.{name}"),
                REGISTRY.counter(f"service.err.{name}"),
                REGISTRY.timer(f"service.latency.{name}"),
            )
            self._instruments[name] = found
        return found

    async def dispatch(
        self, method: str, path: str, body: bytes | dict | None
    ) -> tuple[int, dict]:
        """Route one request; returns ``(status, response payload)``.

        Never raises: malformed input, unknown routes, and typed
        service rejects all come back as structured error payloads.
        """
        route = _ROUTES.get((method, path))
        if route is None:
            if any(p == path for _, p in _ROUTES):
                return 405, {"error": "method_not_allowed"}
            return 404, {"error": "not_found", "detail": path}
        name, handler = route
        requests, errors, latency = self._instrument(name)
        requests.inc()
        if isinstance(body, bytes):
            if body:
                try:
                    body = json.loads(body)
                except (ValueError, UnicodeDecodeError):
                    errors.inc()
                    return 400, {"error": "bad_request", "detail": "invalid JSON body"}
            else:
                body = {}
        elif body is None:
            body = {}
        if not isinstance(body, dict):
            errors.inc()
            return 400, {"error": "bad_request", "detail": "body must be a JSON object"}
        t0 = time.perf_counter()
        try:
            if trace_enabled():
                with span(f"service.{name}"):
                    payload = await handler(self, body)
            else:
                payload = await handler(self, body)
            status = 200
        except Exception as exc:
            errors.inc()
            status, payload = error_response(exc)
        latency.observe(time.perf_counter() - t0)
        return status, payload

    # -- postbox endpoints ---------------------------------------------
    @_route("POST", "/v1/postbox/send", "postbox.send")
    async def _send(self, body: dict) -> dict:
        owner = _field(body, "owner", str)
        sealed = _payload_bytes(body)
        urgent = bool(body.get("urgent", False))
        msg_id = await self.store.deliver(
            owner, sealed, now_s=self.now_s(body), urgent=urgent
        )
        return {"msg_id": msg_id, "owner": owner}

    @_route("POST", "/v1/postbox/check", "postbox.check")
    async def _check(self, body: dict) -> dict:
        owner = _field(body, "owner", str)
        x = _field(body, "x", float)
        y = _field(body, "y", float)
        messages = await self.store.check(
            owner, now_s=self.now_s(body), location=Point(x, y)
        )
        return {"messages": [_message_dict(m) for m in messages]}

    @_route("POST", "/v1/postbox/pushes", "postbox.pushes")
    async def _pushes(self, body: dict) -> dict:
        owner = _field(body, "owner", str)
        pushes = await self.store.take_pushes(owner)
        return {"pushes": [_message_dict(m) for m in pushes]}

    @_route("POST", "/v1/postbox/confirm", "postbox.confirm")
    async def _confirm(self, body: dict) -> dict:
        owner = _field(body, "owner", str)
        msg_id = _field(body, "msg_id", int)
        confirmed = await self.store.confirm_push(owner, msg_id)
        if not confirmed:
            # Exactly-once, typed: a duplicate confirm (retry after a
            # lost response) must be refused loudly, never re-applied.
            raise ConfirmRefusedError(owner, msg_id)
        return {"confirmed": True, "msg_id": msg_id}

    # -- geocast endpoints ---------------------------------------------
    @_route("POST", "/v1/geocast/publish", "geocast.publish")
    async def _geocast_publish(self, body: dict) -> dict:
        x = _field(body, "x", float)
        y = _field(body, "y", float)
        radius = _field(body, "radius", float)
        payload = _payload_bytes(body)
        ttl_s = _field(body, "ttl_s", float, required=False)
        kwargs = {} if ttl_s is None else {"ttl_s": ttl_s}
        geocast_id = self.board.publish(
            x, y, radius, payload, now_s=self.now_s(body), **kwargs
        )
        return {"geocast_id": geocast_id}

    @_route("POST", "/v1/geocast/poll", "geocast.poll")
    async def _geocast_poll(self, body: dict) -> dict:
        x = _field(body, "x", float)
        y = _field(body, "y", float)
        limit = _field(body, "limit", int, required=False) or 50
        hits = self.board.poll(x, y, now_s=self.now_s(body), limit=limit)
        return {
            "messages": [
                {
                    "geocast_id": m.geocast_id,
                    "payload": _b64(m.payload),
                    "x": m.x,
                    "y": m.y,
                    "radius": m.radius,
                }
                for m in hits
            ]
        }

    # -- directory endpoints -------------------------------------------
    def _require_directory(self) -> Directory:
        if self.directory is None:
            raise BadRequestError("service is running without a city map")
        return self.directory

    @_route("POST", "/v1/directory/publish", "directory.publish")
    async def _directory_publish(self, body: dict) -> dict:
        directory = self._require_directory()
        address_bytes = _payload_bytes(body, "address")
        sequence = _field(body, "sequence", int)
        signature = _payload_bytes(body, "signature")
        try:
            address = PostboxAddress.from_bytes(address_bytes)
        except ValueError as exc:
            raise BadRequestError(f"bad address: {exc}") from None
        record = DirectoryRecord(
            address=address, sequence=sequence, signature=signature
        )
        stored = directory.publish(record)
        if not stored:
            raise BadRequestError("record rejected (forged or stale sequence)")
        return {"stored": len(stored), "name": address.name}

    @_route("POST", "/v1/directory/lookup", "directory.lookup")
    async def _directory_lookup(self, body: dict) -> dict:
        directory = self._require_directory()
        name = _field(body, "name", str)
        record = directory.lookup(name)
        if record is None:
            raise NotFoundError(f"no directory record for {name!r}")
        return {
            "name": name,
            "address": _b64(record.address.to_bytes()),
            "sequence": record.sequence,
            "signature": _b64(record.signature),
        }

    # -- health / stats ------------------------------------------------
    @_route("GET", "/v1/healthz", "healthz")
    async def _healthz(self, body: dict) -> dict:
        return {"ok": True, "started": self.started}

    @_route("GET", "/v1/stats", "stats")
    async def _stats(self, body: dict) -> dict:
        return {
            "store": self.store.stats(),
            "geocast_live": self.board.live_count(),
            "directory_records": (
                self.directory.record_count() if self.directory is not None else 0
            ),
            "metrics": REGISTRY.snapshot(),
        }


class InProcessClient:
    """The sockets-free client: calls ``dispatch`` directly.

    Mirrors :class:`repro.service.client.ServiceClient`'s ``request``
    signature so tests and the load generator can swap transports.
    Bodies are round-tripped through JSON bytes, so (de)serialization
    bugs cannot hide behind the shortcut.
    """

    def __init__(self, app: ServiceApp):
        self.app = app

    async def request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        idempotent: bool = False,
    ) -> tuple[int, dict]:
        # ``idempotent`` is transport parity with ServiceClient's
        # retry-once policy; in-process calls cannot hit a keep-alive
        # race, so there is nothing to retry.
        body = b"" if payload is None else json.dumps(payload).encode()
        return await self.app.dispatch(method, path, body)

    async def close(self) -> None:  # transport parity; nothing to close
        return None
