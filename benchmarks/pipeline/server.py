"""The real ``python -m repro serve`` child process, driven from outside.

Lifecycle: spawn, parse the bound port from the ready line, poll
``/v1/healthz`` until the shard writers report started; SIGTERM + wait
on every exit path.  ``stop_all`` is the synchronous last resort run.py
calls from a ``finally`` so no exception or Ctrl-C leaves a server.
"""

from __future__ import annotations

import asyncio
import os
import re
import signal
import subprocess
import sys
import time
from pathlib import Path

from repro.service import ServiceClient

from harness import OP_TIMEOUT_S, proc_cpu_s, proc_peak_rss_mb, ratio, server_cpu

HOST = "127.0.0.1"
_READY_TIMEOUT_S = 60.0
_STOP_TIMEOUT_S = 10.0
_PORT_RE = re.compile(r"http://[^:]+:(\d+)")
_LIVE: list["ServerChild"] = []
_ENDPOINTS = (
    "postbox.send", "postbox.check", "postbox.pushes", "postbox.confirm",
    "geocast.publish", "geocast.poll", "directory.lookup",
)


class ServerError(RuntimeError):
    pass


class ServerChild:
    """One ``repro serve --workers 1 --port 0`` process on loopback."""

    def __init__(self, root: Path, city: str = "gridport", seed: int = 0):
        self.root = root
        self.city = city
        self.seed = seed
        self.port = 0
        self.boot_s = 0.0
        self.peak_rss_mb = 0.0
        self._proc: subprocess.Popen | None = None

    @property
    def pid(self) -> int:
        assert self._proc is not None
        return self._proc.pid

    async def start(self) -> None:
        t0 = time.perf_counter()
        env = dict(os.environ)
        env["PYTHONPATH"] = str(self.root / "src")
        self._proc = subprocess.Popen(
            [
                sys.executable, "-m", "repro", "serve",
                "--workers", "1", "--host", HOST, "--port", "0",
                "--city", self.city, "--seed", str(self.seed),
            ],
            cwd=self.root,
            env=env,
            stdout=subprocess.PIPE,
            text=True,
        )
        _LIVE.append(self)
        os.sched_setaffinity(self._proc.pid, {server_cpu()})
        loop = asyncio.get_running_loop()
        try:
            line = await asyncio.wait_for(
                loop.run_in_executor(None, self._proc.stdout.readline),
                timeout=_READY_TIMEOUT_S,
            )
            match = _PORT_RE.search(line)
            if match is None:
                raise ServerError(f"no port in the server's ready line: {line!r}")
            self.port = int(match.group(1))
            await self._wait_started()
        except BaseException:
            self.stop()
            raise
        self.boot_s = time.perf_counter() - t0

    async def _wait_started(self) -> None:
        client = ServiceClient(HOST, self.port)
        deadline = time.monotonic() + _READY_TIMEOUT_S
        try:
            while True:
                async with asyncio.timeout(OP_TIMEOUT_S):
                    status, body = await client.request(
                        "GET", "/v1/healthz", idempotent=True
                    )
                if status == 200 and body.get("started"):
                    return
                if time.monotonic() > deadline:
                    raise ServerError("server never reported started")
                await asyncio.sleep(0.01)
        finally:
            await client.close()

    async def stats(self, client: ServiceClient) -> dict:
        """``GET /v1/stats`` over a connection the workload already holds
        (between rounds, never timed), so the connection cap stands."""
        async with asyncio.timeout(OP_TIMEOUT_S):
            status, body = await client.request("GET", "/v1/stats", idempotent=True)
        if status != 200:
            raise ServerError(f"/v1/stats answered {status}")
        return body

    def cpu_s(self) -> float:
        return proc_cpu_s(self.pid)

    def stop(self) -> None:
        """SIGTERM, wait, and SIGKILL only if the drain hangs (idempotent)."""
        proc = self._proc
        if proc is None:
            return
        if proc.poll() is None:
            try:
                self.peak_rss_mb = proc_peak_rss_mb(proc.pid)
            except OSError:
                pass
            proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=_STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
        if proc.stdout is not None:
            proc.stdout.close()
        self._proc = None
        if self in _LIVE:
            _LIVE.remove(self)


def stop_all() -> None:
    for child in list(_LIVE):
        child.stop()


def handler_us(stats0: dict, stats1: dict) -> dict[str, float]:
    """Server-side mean handler time per endpoint, from /v1/stats deltas."""
    t0 = stats0["metrics"]["timers"]
    t1 = stats1["metrics"]["timers"]
    out = {}
    for endpoint in _ENDPOINTS:
        after = t1.get(f"service.latency.{endpoint}", {"count": 0, "total_s": 0.0})
        before = t0.get(f"service.latency.{endpoint}", {"count": 0, "total_s": 0.0})
        out[f"service.handler_us.{endpoint}"] = ratio(
            (after["total_s"] - before["total_s"]) * 1e6, after["count"] - before["count"]
        )
    return out
