"""The service runner for one process: build the world, serve until told to stop.

This is what ``repro serve`` executes: construct the city map the
directory rendezvouses over, assemble the :class:`ServiceApp`, bind the
:class:`DFNServer`, install SIGINT/SIGTERM handlers, and block until a
signal (or an explicit stop event) triggers the graceful shutdown
sequence — stop accepting, finish in-flight requests, drain the shard
queues.
"""

from __future__ import annotations

import asyncio
import contextlib
import signal
from typing import Callable

from ..city import make_city
from .app import ServiceApp
from .http import DFNServer


def build_app(
    city_name: str = "gridport",
    seed: int = 0,
    n_shards: int = 8,
    capacity: int = 1024,
    queue_limit: int = 4096,
) -> ServiceApp:
    """Assemble a service app over a preset city."""
    return ServiceApp(
        city=make_city(city_name, seed=seed),
        n_shards=n_shards,
        capacity=capacity,
        queue_limit=queue_limit,
    )


async def run_service(
    app: ServiceApp,
    host: str = "127.0.0.1",
    port: int = 8787,
    ready: Callable[[DFNServer], None] | None = None,
    stop: asyncio.Event | None = None,
    install_signal_handlers: bool = True,
) -> None:
    """Serve until ``stop`` is set or SIGINT/SIGTERM arrives.

    Args:
        app: the assembled service application.
        host / port: bind address (port 0 = ephemeral; read the bound
            port back via the ``ready`` callback).
        ready: called once the server is accepting connections.
        stop: external shutdown trigger (tests, embedding callers).
        install_signal_handlers: wire SIGINT/SIGTERM to the stop event
            (disabled automatically where the loop does not support it,
            e.g. non-main threads).
    """
    stop = stop or asyncio.Event()
    server = DFNServer(app, host=host, port=port)
    await server.start()
    loop = asyncio.get_running_loop()
    installed: list[int] = []
    if install_signal_handlers:
        for signum in (signal.SIGINT, signal.SIGTERM):
            with contextlib.suppress(NotImplementedError, ValueError, RuntimeError):
                loop.add_signal_handler(signum, stop.set)
                installed.append(signum)
    try:
        if ready is not None:
            ready(server)
        await stop.wait()
    finally:
        for signum in installed:
            with contextlib.suppress(Exception):
                loop.remove_signal_handler(signum)
        await server.close()
