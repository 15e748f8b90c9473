"""HTTP/1.1 over asyncio streams, plus the WebSocket-style push stream.

No web framework and no new dependencies: the server speaks just
enough HTTP/1.1 for the service's JSON API — request line, headers,
``Content-Length`` bodies, keep-alive — directly over
``asyncio.start_server`` streams.  Parsing is two ``readuntil``/
``readexactly`` calls per request, which is what lets a single stdlib
event loop sustain thousands of requests per second.

The exception is ``GET /v1/stream``: instead of one response the
connection is upgraded to a long-lived, bidirectional NDJSON stream
(the WebSocket idea without the framing): the server writes one JSON
line per pushed message; the client writes ``{"confirm": <msg_id>}``
lines back, which drive the exactly-once :meth:`~repro.service.shards.
ShardedPostboxStore.confirm_push` path.  An unconfirmed push stays
pending in the store — at-least-once always, exactly once when the
client answers.

Pushes are **wake-on-delivery**: each stream registers a per-owner
``asyncio.Event`` with the :class:`LocalPushGateway`, and the shard
writer sets the event the moment a delivery appends a push record —
push latency is O(delivery), not O(poll interval).  The old poll
remains only as a safety-net timeout.

``DFNServer`` owns the listening socket and the connection set, and
shuts down gracefully: stop accepting, let in-flight requests finish
(idle keep-alive connections are closed immediately), flush every open
push stream and end it with a ``bye`` line, then drain the shard
queues via ``app.close()``.
"""

from __future__ import annotations

import asyncio
import contextlib
import json

from ..obs import REGISTRY
from .app import ServiceApp, _message_dict

_M_CONNS = REGISTRY.counter("service.http.connections")
_M_REQS = REGISTRY.counter("service.http.requests")
_M_STREAMS = REGISTRY.counter("service.http.streams")
_M_WAKES = REGISTRY.counter("service.http.stream_wakes")
_G_OPEN = REGISTRY.gauge("service.http.open_connections")

#: Maximum header block size we will buffer for one request.
MAX_HEADER_BYTES = 16 * 1024
#: Maximum request body size (sealed payloads are small).
MAX_BODY_BYTES = 1 * 1024 * 1024

#: Safety-net re-check interval for push streams.  Wake-on-delivery
#: makes push latency O(delivery); this only bounds the damage if a
#: wake is ever lost, so it can be far above the old 50 ms poll floor.
DEFAULT_PUSH_FALLBACK_S = 0.5

_STATUS_TEXT = {
    200: "OK",
    400: "Bad Request",
    404: "Not Found",
    405: "Method Not Allowed",
    429: "Too Many Requests",
    500: "Internal Server Error",
    503: "Service Unavailable",
}

def _response_bytes(status: int, payload: dict, keep_alive: bool) -> bytes:
    body = json.dumps(payload, separators=(",", ":")).encode()
    reason = _STATUS_TEXT.get(status, "OK")
    connection = "keep-alive" if keep_alive else "close"
    head = (
        f"HTTP/1.1 {status} {reason}\r\n"
        f"Content-Type: application/json\r\n"
        f"Content-Length: {len(body)}\r\n"
        f"Connection: {connection}\r\n\r\n"
    )
    return head.encode() + body


class LocalPushGateway:
    """Per-owner wake events over the store.

    Wires the store's ``on_push`` hook to a registry of per-owner
    :class:`asyncio.Event`\\ s, one per open push stream.
    """

    def __init__(self, app: ServiceApp):
        self._waiters: dict[str, set[asyncio.Event]] = {}
        app.store.on_push = self.wake

    def wake(self, owner: str) -> None:
        """Wake every stream waiting on this owner (delivery-time hook)."""
        waiters = self._waiters.get(owner)
        if waiters:
            _M_WAKES.inc(len(waiters))
            for event in waiters:
                event.set()

    def wake_all(self) -> None:
        """Wake every stream (shutdown: flush-and-bye without waiting
        out the safety-net timeout)."""
        for waiters in self._waiters.values():
            for event in waiters:
                event.set()

    def register(self, owner: str) -> asyncio.Event:
        """Create and register this stream's wake event."""
        event = asyncio.Event()
        self._waiters.setdefault(owner, set()).add(event)
        return event

    def unregister(self, owner: str, event: asyncio.Event) -> None:
        waiters = self._waiters.get(owner)
        if waiters is not None:
            waiters.discard(event)
            if not waiters:
                del self._waiters[owner]


class DFNServer:
    """The always-on DFN service: a ``ServiceApp`` behind TCP."""

    def __init__(
        self,
        app: ServiceApp,
        host: str = "127.0.0.1",
        port: int = 0,
        push_poll_interval_s: float = DEFAULT_PUSH_FALLBACK_S,
    ):
        self.app = app
        self.host = host
        self.requested_port = port
        self.push_poll_interval_s = push_poll_interval_s
        self.gateway = LocalPushGateway(app)
        self._server: asyncio.base_events.Server | None = None
        self._connections: dict[asyncio.Task, dict] = {}
        self._draining = asyncio.Event()
        self._stopped = asyncio.Event()

    # -- lifecycle ------------------------------------------------------
    @property
    def port(self) -> int:
        """The bound port (useful when constructed with port 0)."""
        if self._server is None:
            raise RuntimeError("server is not started")
        return self._server.sockets[0].getsockname()[1]

    async def start(self) -> None:
        """Start shard writers and begin accepting connections."""
        await self.app.start()
        # The reader's buffer limit is the header limit: a head that
        # has not ended within it is refused instead of buffered.
        self._server = await asyncio.start_server(
            self._on_connection, self.host, self.requested_port, limit=MAX_HEADER_BYTES
        )
        self._draining.clear()
        self._stopped.clear()

    async def serve_forever(self) -> None:
        """Block until :meth:`close` is called from another task."""
        await self._stopped.wait()

    async def close(self, drain_timeout_s: float = 5.0) -> None:
        """Graceful shutdown.

        Stop accepting; close idle keep-alive connections immediately;
        let in-flight requests finish and push streams flush-and-bye
        (both watch the draining flag); cancel whatever exceeds the
        timeout; then drain the shard queues.
        """
        if self._server is not None:
            self._server.close()
            await self._server.wait_closed()
            self._server = None
        self._draining.set()
        self.gateway.wake_all()
        for task, state in list(self._connections.items()):
            if not state["busy"] and not state["stream"]:
                task.cancel()
        if self._connections:
            _, pending = await asyncio.wait(
                set(self._connections), timeout=drain_timeout_s
            )
            for task in pending:
                task.cancel()
            if pending:
                await asyncio.gather(*pending, return_exceptions=True)
        self._connections.clear()
        _G_OPEN.set(0)
        await self.app.close()
        self._stopped.set()

    # -- connection handling -------------------------------------------
    def _on_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        state = {"busy": False, "stream": False}
        task = asyncio.create_task(self._handle(reader, writer, state))
        self._connections[task] = state
        task.add_done_callback(lambda t: self._connections.pop(t, None))
        _M_CONNS.inc()
        _G_OPEN.set(len(self._connections))

    async def _handle(
        self,
        reader: asyncio.StreamReader,
        writer: asyncio.StreamWriter,
        state: dict,
    ) -> None:
        try:
            while True:
                state["busy"] = False
                if self._draining.is_set():
                    return
                try:
                    header_block = await reader.readuntil(b"\r\n\r\n")
                except (
                    asyncio.IncompleteReadError,
                    ConnectionResetError,
                    BrokenPipeError,
                ):
                    return  # client went away between requests
                except asyncio.LimitOverrunError:
                    writer.write(
                        _response_bytes(
                            400, {"error": "bad_request", "detail": "headers too large"},
                            keep_alive=False,
                        )
                    )
                    return
                state["busy"] = True
                request = self._parse_head(header_block)
                if request is None:
                    writer.write(
                        _response_bytes(
                            400, {"error": "bad_request", "detail": "malformed request"},
                            keep_alive=False,
                        )
                    )
                    return
                method, target, keep_alive, content_length = request
                if content_length > MAX_BODY_BYTES:
                    writer.write(
                        _response_bytes(
                            400, {"error": "bad_request", "detail": "body too large"},
                            keep_alive=False,
                        )
                    )
                    return
                body = (
                    await reader.readexactly(content_length)
                    if content_length
                    else b""
                )
                path, _, query = target.partition("?")
                _M_REQS.inc()
                if method == "GET" and path == "/v1/stream":
                    state["stream"] = True
                    await self._handle_stream(query, reader, writer)
                    return  # the stream consumes the connection
                status, payload = await self.app.dispatch(method, path, body)
                writer.write(_response_bytes(status, payload, keep_alive))
                await writer.drain()
                if not keep_alive:
                    return
        except (ConnectionResetError, BrokenPipeError, asyncio.IncompleteReadError):
            return
        except asyncio.CancelledError:
            raise
        finally:
            writer.close()
            try:
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            _G_OPEN.set(max(0, len(self._connections) - 1))

    @staticmethod
    def _parse_head(
        header_block: bytes,
    ) -> tuple[str, str, bool, int] | None:
        """Parse request line + headers → (method, target, keep_alive,
        content_length); None on malformed input."""
        try:
            lines = header_block.decode("latin-1").split("\r\n")
            method, target, version = lines[0].split(" ", 2)
        except (UnicodeDecodeError, ValueError):
            return None
        keep_alive = version.strip().upper() != "HTTP/1.0"
        content_length = 0
        for line in lines[1:]:
            if not line:
                continue
            key, sep, value = line.partition(":")
            if not sep:
                return None
            key = key.strip().lower()
            if key == "content-length":
                try:
                    content_length = int(value.strip())
                except ValueError:
                    return None
                if content_length < 0:
                    return None
            elif key == "connection":
                token = value.strip().lower()
                if token == "close":
                    keep_alive = False
                elif token == "keep-alive":
                    keep_alive = True
        return method.upper(), target, keep_alive, content_length

    # -- the push stream ------------------------------------------------
    async def _handle_stream(
        self, query: str, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """``GET /v1/stream?owner=NAME``: long-lived NDJSON push channel.

        Server → client: ``{"type": "push", "msg_id": …, "payload": …}``
        per pushed message (urgent deliveries the owner opted into),
        written the moment the delivery lands (wake-on-delivery).
        Client → server: ``{"confirm": <msg_id>}`` lines; each drives
        the store's exactly-once confirm path and is acknowledged with
        ``{"type": "confirmed", "msg_id": …, "ok": bool}``.  On
        graceful shutdown the stream flushes pending pushes, writes
        ``{"type": "bye"}``, and closes cleanly.
        """
        owner = None
        for pair in query.split("&"):
            key, _, value = pair.partition("=")
            if key == "owner" and value:
                owner = value
        if not owner:
            writer.write(
                _response_bytes(
                    400, {"error": "bad_request", "detail": "stream needs ?owner="},
                    keep_alive=False,
                )
            )
            return
        _M_STREAMS.inc()
        writer.write(
            b"HTTP/1.1 200 OK\r\n"
            b"Content-Type: application/x-ndjson\r\n"
            b"Cache-Control: no-store\r\n"
            b"Connection: close\r\n\r\n"
        )
        writer.write(json.dumps({"type": "hello", "owner": owner}).encode() + b"\n")
        await writer.drain()
        wake = self.gateway.register(owner)
        pusher = asyncio.create_task(self._stream_pusher(owner, wake, writer))
        confirmer = asyncio.create_task(
            self._stream_confirmer(owner, reader, writer)
        )
        try:
            # The pusher ends on graceful drain; the confirmer ends when
            # the client hangs up.  Either way the stream is over.
            done, pending = await asyncio.wait(
                {pusher, confirmer}, return_when=asyncio.FIRST_COMPLETED
            )
            for task in pending:
                task.cancel()
            await asyncio.gather(*pending, return_exceptions=True)
            for task in done:
                exc = task.exception()
                if exc is not None and not isinstance(
                    exc, (ConnectionResetError, BrokenPipeError)
                ):
                    raise exc
            if self._draining.is_set():
                with contextlib.suppress(ConnectionResetError, BrokenPipeError):
                    writer.write(json.dumps({"type": "bye"}).encode() + b"\n")
                    await writer.drain()
        finally:
            self.gateway.unregister(owner, wake)

    async def _stream_pusher(
        self, owner: str, wake: asyncio.Event, writer: asyncio.StreamWriter
    ) -> None:
        """Write push lines as deliveries land; return on drain."""
        while True:
            wake.clear()
            pushes = await self.app.store.take_pushes(owner)
            for push in pushes:
                writer.write(
                    json.dumps({"type": "push", **_message_dict(push)}).encode()
                    + b"\n"
                )
            if pushes:
                await writer.drain()
            if self._draining.is_set():
                return
            # Wake-on-delivery: the event is set by the shard writer.
            # The timeout is only a safety net; any delivery between
            # take_pushes and here re-set the event, so no wake is ever
            # lost.
            with contextlib.suppress(asyncio.TimeoutError):
                await asyncio.wait_for(
                    wake.wait(), timeout=self.push_poll_interval_s
                )

    async def _stream_confirmer(
        self, owner: str, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        """Apply the client's confirm lines until it hangs up."""
        while True:
            try:
                line = await reader.readline()
                if not line:
                    return  # EOF: client hung up
                msg_id = int(json.loads(line)["confirm"])
            except (ValueError, KeyError, TypeError, OverflowError):
                # Not JSON, no integer ``confirm``, or a line past the
                # reader's limit (readline drops it and raises).
                writer.write(
                    json.dumps({"type": "error", "error": "bad_confirm"}).encode()
                    + b"\n"
                )
                await writer.drain()
                continue
            ok = await self.app.store.confirm_push(owner, msg_id)
            writer.write(
                json.dumps({"type": "confirmed", "msg_id": msg_id, "ok": ok}).encode()
                + b"\n"
            )
            await writer.drain()
