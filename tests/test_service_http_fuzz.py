"""Byte-level fuzz of the HTTP/1.1 request reader against a live server.

Hypothesis feeds a real :class:`~repro.service.DFNServer` on loopback
truncated request heads, missing, negative, oversized and non-numeric
``Content-Length`` values, header blocks over the size limit, pipelined
requests, and bodies that are not UTF-8, not JSON, or JSON holding the
wrong types and non-finite numbers.  The client sends the bytes,
half-closes its side, and reads until the server closes.

Every input must end the same way: whatever came back parses as
complete HTTP responses, none has a 5xx status, every error is typed
(``{"error": code, ...}``), the server closes within ``DEADLINE_S``,
the connection task ends without an exception, and ``/v1/healthz``
still answers 200 afterwards.

The server runs on its own event-loop thread for the whole module so
each example costs a few loopback round trips, not a server start.
"""

import asyncio
import json
import math
import socket
import threading
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.service import DFNServer, build_app
from repro.service.http import MAX_BODY_BYTES, MAX_HEADER_BYTES

#: How long the server may take to answer or close one fuzz connection.
DEADLINE_S = 5.0


def _fuzz(examples: int):
    """Hypothesis settings for this module: seeded, so tier-1 runs the
    same inputs every time, and no example database on disk."""
    return settings(
        max_examples=examples, deadline=None, derandomize=True, database=None
    )


#: Every route with a valid body: fuzz bodies are these with fields
#: overwritten, so the handlers run past their first type check.
TEMPLATES = {
    ("POST", "/v1/postbox/send"): {
        "owner": "fuzz", "payload": "aGVsbG8=", "urgent": True, "now_s": 1.0,
    },
    ("POST", "/v1/postbox/check"): {"owner": "fuzz", "x": 1.0, "y": 1.0, "now_s": 2.0},
    ("POST", "/v1/postbox/pushes"): {"owner": "fuzz"},
    ("POST", "/v1/postbox/confirm"): {"owner": "fuzz", "msg_id": 1},
    ("POST", "/v1/geocast/publish"): {
        "x": 50.0, "y": 50.0, "radius": 200.0, "payload": "aGVsbG8=",
        "ttl_s": 60.0, "now_s": 1.0,
    },
    ("POST", "/v1/geocast/poll"): {"x": 50.0, "y": 50.0, "now_s": 2.0, "limit": 5},
    ("POST", "/v1/directory/publish"): {
        "address": "aGVsbG8=", "sequence": 1, "signature": "aGVsbG8=",
    },
    ("POST", "/v1/directory/lookup"): {"name": "fuzz"},
    ("GET", "/v1/healthz"): {},
    ("GET", "/v1/stats"): {},
    ("GET", "/v1/nope"): {},
    # A push stream reads ``{"confirm": msg_id}`` lines after its head.
    ("GET", "/v1/stream?owner=fuzz"): {"confirm": 1},
}
ROUTES = [route for route in TEMPLATES if not route[1].startswith("/v1/stream")]
FIELDS = sorted({key for body in TEMPLATES.values() for key in body})
STREAM_EVENTS = {"hello", "push", "confirmed", "error", "bye"}


class _RecordingServer(DFNServer):
    """A DFNServer that keeps a connection task's exception for the
    test instead of leaving it to the loop's never-retrieved logger."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.crashes: list[BaseException] = []

    async def _handle(self, reader, writer, state):
        try:
            await super()._handle(reader, writer, state)
        except Exception as exc:  # noqa: BLE001 (recorded, asserted on)
            self.crashes.append(exc)


class _LiveServer:
    """The server on a background event-loop thread."""

    def __init__(self):
        # A small postbox capacity lets repeated fuzz sends reach the
        # typed 429 path too.
        app = build_app(city_name="gridport", seed=0, capacity=64)
        self.loop = asyncio.new_event_loop()
        self.thread = threading.Thread(target=self.loop.run_forever, daemon=True)
        self.thread.start()
        self.server = _RecordingServer(app, port=0)
        self.call(self.server.start())
        self.port = self.server.port

    def call(self, coro):
        return asyncio.run_coroutine_threadsafe(coro, self.loop).result(DEADLINE_S)

    async def _idle(self) -> None:
        while self.server._connections:
            await asyncio.sleep(0.001)

    def wait_idle(self) -> None:
        """Block until every connection task has finished."""
        self.call(asyncio.wait_for(self._idle(), DEADLINE_S))

    def close(self) -> None:
        self.call(self.server.close())
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(DEADLINE_S)
        assert not self.thread.is_alive()
        self.loop.close()


@pytest.fixture(scope="module")
def live():
    server = _LiveServer()
    try:
        yield server
    finally:
        server.close()


def _exchange(port: int, data: bytes) -> bytes:
    """Send ``data``, half-close, and read until the server closes."""
    chunks = []
    with socket.create_connection(("127.0.0.1", port), timeout=DEADLINE_S) as sock:
        try:
            sock.sendall(data)
            sock.shutdown(socket.SHUT_WR)
        except (BrokenPipeError, ConnectionResetError):
            pass  # the server answered early and closed; read what it sent
        t_end = time.monotonic() + DEADLINE_S
        while True:
            try:
                chunk = sock.recv(65536)
            except ConnectionResetError:
                break  # closed with our unread bytes still queued
            except TimeoutError:
                pytest.fail(f"server neither answered nor closed in {DEADLINE_S} s")
            if not chunk:
                break
            chunks.append(chunk)
            if time.monotonic() > t_end:
                pytest.fail(f"server kept the connection open past {DEADLINE_S} s")
    return b"".join(chunks)


def _responses(raw: bytes) -> list[int]:
    """Parse a server's byte stream into statuses, checking each
    response is complete and each error is typed."""
    statuses = []
    while raw:
        head, sep, rest = raw.partition(b"\r\n\r\n")
        assert sep, f"truncated response head: {raw[:120]!r}"
        lines = head.decode("latin-1").split("\r\n")
        version, status, _ = lines[0].split(" ", 2)
        assert version == "HTTP/1.1"
        statuses.append(int(status))
        headers = dict(line.split(": ", 1) for line in lines[1:])
        if headers["Content-Type"] == "application/x-ndjson":
            # A push stream: the rest of the connection is its events.
            for line in rest.splitlines():
                assert json.loads(line)["type"] in STREAM_EVENTS
            break
        length = int(headers["Content-Length"])
        assert len(rest) >= length, "truncated response body"
        payload = json.loads(rest[:length])
        assert isinstance(payload, dict)
        if int(status) >= 400:
            assert isinstance(payload.get("error"), str), payload
        raw = rest[length:]
    return statuses


def _check(live: _LiveServer, data: bytes) -> list[int]:
    """One fuzz input end to end; returns the statuses it got."""
    live.server.crashes.clear()
    statuses = _responses(_exchange(live.port, data))
    assert all(s < 500 for s in statuses), statuses
    health = _responses(
        _exchange(live.port, b"GET /v1/healthz HTTP/1.1\r\nConnection: close\r\n\r\n")
    )
    assert health == [200]
    live.wait_idle()
    assert not live.server.crashes, live.server.crashes
    return statuses


# ---------------------------------------------------------------------------
# strategies

_scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(min_value=-(2**70), max_value=2**70),
    st.floats(allow_nan=True, allow_infinity=True),
    st.text(max_size=12),
    st.sampled_from(["fuzz", "AAAA", "aGVsbG8=", "not base64!", "1e400"]),
)
_edge_values = st.sampled_from([math.nan, math.inf, -math.inf, 2**64, -1, "", None, []])
_json_values = st.one_of(
    _scalars,
    st.lists(_scalars, max_size=3),
    st.dictionaries(st.text(max_size=6), _scalars, max_size=3),
)


def _fields_overwritten(route: tuple[str, str]) -> st.SearchStrategy[bytes]:
    """The route's valid body with one or two of its fields (or a
    stray one) overwritten by a wrong type or a non-finite number."""
    template = TEMPLATES[route]
    keys = st.sampled_from(sorted(template) or FIELDS) | st.sampled_from(FIELDS)
    overrides = st.dictionaries(
        keys, st.one_of(_edge_values, _json_values), min_size=1, max_size=2
    )
    return overrides.map(lambda o: json.dumps({**template, **o}).encode())


def _bodies(route: tuple[str, str]) -> st.SearchStrategy[bytes]:
    """A field-level fuzz of the route's body, or bytes that are not a
    JSON object at all."""
    return st.one_of(
        _fields_overwritten(route),
        _json_values.map(lambda v: json.dumps(v).encode()),
        st.binary(max_size=64),  # bad UTF-8, bad JSON
        st.just(b""),
    )


_bad_lengths = st.one_of(
    st.none(),  # no Content-Length header at all
    st.integers(min_value=-(2**31), max_value=-1),
    st.integers(min_value=MAX_BODY_BYTES + 1, max_value=2**40),
    st.sampled_from(["", "abc", "0x10", "1_0", "+3", " 7 ", "1.5", "9" * 5000]),
)


@st.composite
def _requests(draw, well_formed: bool = False) -> bytes:
    """One request; unless ``well_formed``, with its request line,
    ``Content-Length`` or headers possibly broken, or a push stream."""
    routes = ROUTES if well_formed else list(TEMPLATES)
    method, target = route = draw(st.sampled_from(routes))
    body = draw(_fields_overwritten(route) if well_formed else _bodies(route))
    version = "HTTP/1.1"
    length: int | str | None = len(body)
    headers = [b"Host: fuzz"]
    if not well_formed:
        if draw(st.booleans()):
            method = draw(st.sampled_from([method, "PUT", "get", "", "GET POST"]))
        if draw(st.booleans()):
            target = draw(
                st.sampled_from([target, "/v1/stream", "/v1/stream?owner=", "", "*"])
            )
        if draw(st.booleans()):
            version = draw(st.sampled_from(["HTTP/1.0", "HTTP/2", "", "http/1.1 x"]))
        if draw(st.booleans()):
            length = draw(_bad_lengths)
        if draw(st.booleans()):
            headers.append(
                draw(
                    st.sampled_from(
                        [
                            b"Connection: close",
                            b"Connection: keep-alive",
                            b"no colon here",
                            b"Content-Length: 3",
                            b"X-Bytes: \xff\xfe\x00",
                        ]
                    )
                )
            )
    if length is not None:
        headers.append(f"Content-Length: {length}".encode("latin-1"))
    head = f"{method} {target} {version}".encode("latin-1")
    return b"\r\n".join([head, *headers]) + b"\r\n\r\n" + body


# ---------------------------------------------------------------------------
# the fuzz properties


@_fuzz(60)
@given(st.lists(_requests(), min_size=1, max_size=4), st.data())
def test_malformed_and_pipelined_requests_get_typed_answers(live, requests, data):
    raw = b"".join(requests)
    if data.draw(st.booleans(), label="truncate"):
        raw = raw[: data.draw(st.integers(0, len(raw)), label="cut")]
    _check(live, raw)


@_fuzz(60)
@given(st.binary(max_size=512))
def test_arbitrary_bytes_get_typed_answers(live, raw):
    _check(live, raw)


@_fuzz(60)
@given(st.lists(_requests(well_formed=True), min_size=1, max_size=4))
def test_pipelined_well_formed_requests_each_get_one_answer(live, requests):
    """Requests with a correct head and length are answered one for
    one, in order, whatever their bodies hold."""
    assert len(_check(live, b"".join(requests))) == len(requests)


@_fuzz(6)
@given(
    st.integers(min_value=MAX_HEADER_BYTES + 1, max_value=80 * 1024),
    st.booleans(),
)
def test_header_blocks_over_the_limit_are_400(live, size, terminated):
    """Over ``MAX_HEADER_BYTES`` is a 400 whether or not the blank line
    ever arrives.  Regression: an unterminated block was buffered up to
    the stream reader's 64 KiB default and then dropped unanswered; the
    reader's limit is now the header limit itself."""
    raw = b"GET /v1/healthz HTTP/1.1\r\nX-Pad: " + b"a" * size
    if terminated:
        raw += b"\r\n\r\n"
    assert _check(live, raw) == [400]


@_fuzz(40)
@given(
    st.lists(
        st.one_of(
            _fields_overwritten(("GET", "/v1/stream?owner=fuzz")),
            st.binary(max_size=32).map(lambda b: b.replace(b"\n", b"")),
            st.just(b"c" * (MAX_HEADER_BYTES + 1)),  # over the line limit
        ),
        max_size=4,
    )
)
def test_push_stream_confirm_lines_get_typed_answers(live, lines):
    """After a push stream's head, every client line is a confirm:
    whatever it holds, the stream answers with typed events."""
    head = b"GET /v1/stream?owner=fuzz HTTP/1.1\r\nHost: fuzz\r\n\r\n"
    _check(live, head + b"".join(line + b"\n" for line in lines))


# ---------------------------------------------------------------------------
# regressions: one per fuzz finding


def _post(target: str, body: bytes) -> bytes:
    return (
        f"POST {target} HTTP/1.1\r\nContent-Length: {len(body)}\r\n\r\n".encode()
        + body
    )


@pytest.mark.parametrize(
    "target, body",
    [
        ("/v1/geocast/publish",
         b'{"x": 1, "y": 1, "radius": NaN, "payload": "aGVsbG8=", "now_s": 1}'),
        ("/v1/geocast/publish",
         b'{"x": 1e400, "y": 1, "radius": 50, "payload": "aGVsbG8=", "now_s": 1}'),
        ("/v1/geocast/poll", b'{"x": Infinity, "y": 1, "now_s": 1}'),
        ("/v1/geocast/poll", b'{"x": 1, "y": 1' + b"0" * 400 + b', "now_s": 1}'),
        ("/v1/postbox/check", b'{"owner": "fuzz", "x": 1, "y": 1, "now_s": -Infinity}'),
        ("/v1/postbox/send", b'{"owner": "fuzz", "payload": "aGVsbG8=", "now_s": NaN}'),
    ],
    ids=["radius-nan", "x-1e400", "x-inf", "y-huge-int", "now-neg-inf", "now-nan"],
)
def test_non_finite_numbers_are_400(live, target, body):
    """Found by the fuzz: NaN, ±Infinity and integers past the float
    range reached the geocast grid (``int(nan)``: a 500) or the store's
    clock.  Every numeric field now refuses them with a typed 400."""
    raw = _exchange(live.port, _post(target, body))
    assert _responses(raw) == [400]
    assert b"must be a finite number" in raw


def test_bad_confirm_lines_keep_the_stream_open(live):
    """Found by the fuzz: a confirm line that was JSON but not an
    integer id (``"x"``, NaN) or longer than the reader's limit killed
    the connection task with an exception.  Each is now a typed
    ``bad_confirm`` event and the stream reads on."""
    lines = [
        b'{"confirm": "x"}',
        b'{"confirm": NaN}',
        b"c" * (MAX_HEADER_BYTES + 1),
        b'{"confirm": 99}',
    ]
    head = b"GET /v1/stream?owner=regress HTTP/1.1\r\n\r\n"
    live.server.crashes.clear()
    raw = _exchange(live.port, head + b"".join(line + b"\n" for line in lines))
    live.wait_idle()
    assert live.server.crashes == []
    _, _, events = raw.partition(b"\r\n\r\n")
    types = [json.loads(line)["type"] for line in events.splitlines()]
    assert types[0] == "hello"
    assert types[-1] == "confirmed"  # the stream outlived the bad lines
    assert types.count("error") >= 3
