"""Minimal asyncio clients for the DFN service.

``ServiceClient`` is a single keep-alive HTTP/1.1 connection with a
``request()`` coroutine — one in-flight request at a time, which is
exactly the closed-loop behaviour the load generator wants (a virtual
phone does not pipeline).  ``PushStreamClient`` attaches to the
``/v1/stream`` NDJSON channel and confirms pushes as it reads them.

Both reconnect lazily: a dropped connection surfaces on the next call
and is retried once on a fresh socket before the error propagates.
"""

from __future__ import annotations

import asyncio
import json


class ServiceClient:
    """One keep-alive connection to a :class:`~repro.service.DFNServer`.

    A dropped connection surfaces on the next call; **idempotent**
    requests (``request(..., idempotent=True)``) are retried once on a
    fresh socket and counted in :attr:`retries`, so the load report can
    tell keep-alive races from real errors.  Non-idempotent requests
    (send/confirm/publish) propagate the failure — retrying those could
    double-apply.
    """

    def __init__(self, host: str, port: int):
        self.host = host
        self.port = port
        self.retries = 0
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._reader = self._writer = None

    async def request(
        self,
        method: str,
        path: str,
        payload: dict | None = None,
        idempotent: bool = False,
    ) -> tuple[int, dict]:
        """One request/response round trip.

        Idempotent calls are retried once on a fresh socket after a
        connection-level failure (counted in :attr:`retries`); others
        propagate it.
        """
        if self._writer is None:
            await self.connect()
        try:
            return await self._round_trip(method, path, payload)
        except (
            ConnectionResetError,
            BrokenPipeError,
            asyncio.IncompleteReadError,
        ):
            await self.close()
            if not idempotent:
                raise
            self.retries += 1
            await self.connect()
            return await self._round_trip(method, path, payload)

    async def _round_trip(
        self, method: str, path: str, payload: dict | None
    ) -> tuple[int, dict]:
        assert self._reader is not None and self._writer is not None
        body = b"" if payload is None else json.dumps(payload).encode()
        head = (
            f"{method} {path} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n"
            f"Content-Length: {len(body)}\r\n"
            f"Connection: keep-alive\r\n\r\n"
        )
        self._writer.write(head.encode() + body)
        await self._writer.drain()
        header_block = await self._reader.readuntil(b"\r\n\r\n")
        lines = header_block.decode("latin-1").split("\r\n")
        status = int(lines[0].split(" ", 2)[1])
        content_length = 0
        for line in lines[1:]:
            key, _, value = line.partition(":")
            if key.strip().lower() == "content-length":
                content_length = int(value.strip())
        raw = await self._reader.readexactly(content_length)
        return status, json.loads(raw) if raw else {}


class PushStreamClient:
    """A device's push channel: read pushes, confirm each one.

    Usage::

        stream = PushStreamClient(host, port, owner="bob")
        await stream.connect()
        push = await stream.next_push()      # {"msg_id": …, "payload": …}
        ok = await stream.confirm(push["msg_id"])
    """

    def __init__(self, host: str, port: int, owner: str):
        self.host = host
        self.port = port
        self.owner = owner
        self._reader: asyncio.StreamReader | None = None
        self._writer: asyncio.StreamWriter | None = None

    async def connect(self) -> None:
        self._reader, self._writer = await asyncio.open_connection(
            self.host, self.port
        )
        self._writer.write(
            f"GET /v1/stream?owner={self.owner} HTTP/1.1\r\n"
            f"Host: {self.host}\r\n\r\n".encode()
        )
        await self._writer.drain()
        header_block = await self._reader.readuntil(b"\r\n\r\n")
        status = int(header_block.split(b" ", 2)[1])
        if status != 200:
            raise ConnectionError(f"stream rejected with status {status}")
        hello = json.loads(await self._reader.readline())
        if hello.get("type") != "hello":
            raise ConnectionError(f"unexpected stream greeting: {hello}")

    async def _next_event(self) -> dict:
        assert self._reader is not None
        line = await self._reader.readline()
        if not line:
            raise ConnectionError("push stream closed by server")
        return json.loads(line)

    async def next_push(self, timeout_s: float | None = None) -> dict:
        """Block until the next pushed message arrives."""
        while True:
            event = await asyncio.wait_for(self._next_event(), timeout=timeout_s)
            if event.get("type") == "push":
                return event

    async def confirm(self, msg_id: int) -> bool:
        """Confirm one push; True when the store accepted it (exactly
        once — a second confirm of the same id reports False)."""
        assert self._writer is not None
        self._writer.write(json.dumps({"confirm": msg_id}).encode() + b"\n")
        await self._writer.drain()
        while True:
            event = await self._next_event()
            if event.get("type") == "confirmed" and event.get("msg_id") == msg_id:
                return bool(event.get("ok"))

    async def close(self) -> None:
        if self._writer is not None:
            self._writer.close()
            try:
                await self._writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass
            self._reader = self._writer = None
