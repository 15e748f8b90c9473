"""``repro.service``: the always-on asynchronous DFN service layer.

The paper's §3 applications — postbox send/check with urgent pushes,
geospatial messaging, and directory lookup — exposed as a long-running
stdlib-asyncio service instead of a batch simulation step:

- :mod:`~repro.service.shards` — owner-sharded postbox stores, one
  single-writer task per shard, preserving the exactly-once-on-success
  push semantics under concurrent access;
- :mod:`~repro.service.app` — the transport-independent endpoint
  handlers (plus :class:`InProcessClient`, the sockets-free test path);
- :mod:`~repro.service.http` — minimal HTTP/1.1 + NDJSON push stream
  over asyncio streams, with graceful shutdown;
- :mod:`~repro.service.geoboard` — the geocast publish/poll board;
- :mod:`~repro.service.loadgen` — deterministic scenario-timeline
  traffic and the closed-loop replay that measures sustained req/s and
  p50/p99 latency;
- :mod:`~repro.service.errors` — typed backpressure (full postbox,
  overloaded shard, full board), never silent drops.

No new dependencies: everything here is the standard library plus the
existing ``repro`` stack.
"""

from .app import InProcessClient, ServiceApp
from .client import PushStreamClient, ServiceClient
from .errors import (
    BadRequestError,
    ConfirmRefusedError,
    GeocastBoardFullError,
    NotFoundError,
    PostboxFullError,
    ServiceError,
    ShardOverloadedError,
    error_response,
)
from .geoboard import GeocastBoard, GeocastMessage
from .http import DFNServer
from .loadgen import (
    DEFAULT_MIX,
    LoadReport,
    LoadTrace,
    TraceRequest,
    format_report,
    generate_trace,
    run_loadgen,
)
from .server import build_app, run_service
from .shards import ShardedPostboxStore

__all__ = [
    "BadRequestError",
    "ConfirmRefusedError",
    "DEFAULT_MIX",
    "DFNServer",
    "GeocastBoard",
    "GeocastBoardFullError",
    "GeocastMessage",
    "InProcessClient",
    "LoadReport",
    "LoadTrace",
    "NotFoundError",
    "PostboxFullError",
    "PushStreamClient",
    "ServiceApp",
    "ServiceClient",
    "ServiceError",
    "ShardOverloadedError",
    "ShardedPostboxStore",
    "TraceRequest",
    "build_app",
    "error_response",
    "format_report",
    "generate_trace",
    "run_loadgen",
    "run_service",
]
