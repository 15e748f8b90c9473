"""Sharded postbox stores: one single-writer asyncio task per shard.

The always-on service multiplexes every owner's postbox over one event
loop.  Correctness of the postbox push path (exactly once on success,
at least once always — the PR 4 semantics) depends on deliver / check /
take-pushes / confirm never interleaving *within one box*, so the store
is sharded by owner name: ``blake2b(owner) % n_shards`` picks a shard,
and each shard runs exactly one writer task that applies operations
from its queue strictly in order.  Two operations on the same owner
can therefore never race, while operations on different shards proceed
concurrently.

Backpressure is typed, never silent: a shard queue at its depth limit
rejects the submission with :class:`ShardOverloadedError` (HTTP 503)
before any work is enqueued, and a full postbox propagates the
postbox-layer :class:`~repro.postbox.PostboxFullError` (HTTP 429) to
the submitting caller.

The store keeps the ``postbox.store.pending`` gauge (total messages
waiting across all shards) current by measuring each box's pending
count before and after every operation — O(1) per op, exact whatever
mix of delivery, retrieval, confirmation, and expiry ran inside.
"""

from __future__ import annotations

import asyncio
import hashlib
from dataclasses import dataclass, field
from typing import Any, Callable

from ..geometry import Point
from ..obs import REGISTRY
from ..postbox import Postbox, PostboxFullError, StoredMessage
from .errors import ShardOverloadedError

_G_PENDING = REGISTRY.gauge("postbox.store.pending")
_M_OPS = REGISTRY.counter("service.store.ops")
_M_REJECTS = REGISTRY.counter("service.store.queue_rejects")

#: Default shard-queue depth limit (ops, not bytes).
DEFAULT_QUEUE_LIMIT = 4096


@dataclass
class _Shard:
    """One shard: its boxes, its op queue, its writer task."""

    index: int
    boxes: dict[str, Postbox] = field(default_factory=dict)
    queue: asyncio.Queue = field(default_factory=asyncio.Queue)
    task: asyncio.Task | None = None
    ops: int = 0


class ShardedPostboxStore:
    """Owner-sharded postboxes behind single-writer asyncio tasks.

    All public operations are coroutines that submit a closure to the
    owner's shard and await the result; exceptions raised inside the
    closure (including :class:`~repro.postbox.PostboxFullError`)
    propagate to the awaiting caller.  The store must be started
    (:meth:`start`) inside a running event loop before use and closed
    (:meth:`close`) for a graceful drain.
    """

    def __init__(
        self,
        n_shards: int = 8,
        capacity: int = 1024,
        retention_s: float = 7 * 24 * 3600.0,
        queue_limit: int = DEFAULT_QUEUE_LIMIT,
    ):
        if n_shards < 1:
            raise ValueError("need at least one shard")
        if queue_limit < 1:
            raise ValueError("queue limit must be positive")
        self.n_shards = n_shards
        self.capacity = capacity
        self.retention_s = retention_s
        self.queue_limit = queue_limit
        self._shards = [
            _Shard(i, queue=asyncio.Queue(maxsize=queue_limit))
            for i in range(n_shards)
        ]
        self._pending_total = 0
        self._started = False
        self._closing = False
        #: Wake-on-delivery hook: called with the owner name from the
        #: shard writer task whenever an operation appended push
        #: records to that owner's box (an urgent delivery with a
        #: cached location).  The push stream registers per-owner
        #: events behind this instead of polling.
        self.on_push: Callable[[str], None] | None = None

    # -- lifecycle ------------------------------------------------------
    async def start(self) -> None:
        """Spawn one writer task per shard (idempotent)."""
        if self._started:
            return
        for shard in self._shards:
            shard.task = asyncio.create_task(
                self._writer(shard), name=f"postbox-shard-{shard.index}"
            )
        self._started = True
        self._closing = False

    async def close(self) -> None:
        """Graceful shutdown: drain every queued op, then stop writers.

        Operations already accepted are applied before the writer
        exits — accepted work is never dropped; new submissions after
        ``close`` begins are rejected as overload.
        """
        if not self._started:
            return
        self._closing = True
        for shard in self._shards:
            await shard.queue.put(None)  # drain sentinel: queue order = op order
        for shard in self._shards:
            if shard.task is not None:
                await shard.task
                shard.task = None
        self._started = False

    async def _writer(self, shard: _Shard) -> None:
        """The shard's single writer: applies ops strictly in order."""
        while True:
            item = await shard.queue.get()
            if item is None:
                break
            fn, future = item
            shard.ops += 1
            try:
                result = fn(shard)
            except Exception as exc:  # typed rejects travel via the future
                if not future.cancelled():
                    future.set_exception(exc)
            else:
                if not future.cancelled():
                    future.set_result(result)

    # -- submission -----------------------------------------------------
    def shard_index(self, owner: str) -> int:
        """The shard an owner's box lives on (stable across restarts)."""
        digest = hashlib.blake2b(owner.encode(), digest_size=4).digest()
        return int.from_bytes(digest, "big") % self.n_shards

    def _submit(self, owner: str, fn: Callable[[_Shard], Any]) -> asyncio.Future:
        shard = self._shards[self.shard_index(owner)]
        if self._closing:
            # Shutdown (in progress or completed): typed backpressure,
            # not an internal error — clients should back off and retry.
            _M_REJECTS.inc()
            raise ShardOverloadedError(shard.index, self.queue_limit)
        if not self._started:
            raise RuntimeError("ShardedPostboxStore.start() has not been awaited")
        future = asyncio.get_running_loop().create_future()
        try:
            shard.queue.put_nowait((fn, future))
        except asyncio.QueueFull:
            _M_REJECTS.inc()
            raise ShardOverloadedError(shard.index, self.queue_limit) from None
        _M_OPS.inc()
        return future

    def _box(self, shard: _Shard, owner: str) -> Postbox:
        box = shard.boxes.get(owner)
        if box is None:
            box = Postbox(
                owner_name=owner,
                capacity=self.capacity,
                retention_s=self.retention_s,
            )
            shard.boxes[owner] = box
        return box

    def _tracked(self, owner: str, fn: Callable[[Postbox], Any]) -> asyncio.Future:
        """Submit ``fn(box)``, keeping the pending gauge exact."""

        def op(shard: _Shard) -> Any:
            box = self._box(shard, owner)
            before = box.pending_count()
            pushes_before = len(box.pushed)
            try:
                return fn(box)
            finally:
                delta = box.pending_count() - before
                if delta:
                    self._pending_total += delta
                    _G_PENDING.set(self._pending_total)
                if self.on_push is not None and len(box.pushed) > pushes_before:
                    self.on_push(owner)

        return self._submit(owner, op)

    # -- the postbox API, sharded --------------------------------------
    async def deliver(
        self, owner: str, sealed: bytes, now_s: float, urgent: bool = False
    ) -> int:
        """Store a sealed message; returns its wire ``msg_id``.

        Raises:
            PostboxFullError: the owner's box is at capacity.
            ShardOverloadedError: the shard queue is at its depth limit.
        """

        def op(box: Postbox) -> int:
            message = box.deliver_message(sealed, now_s=now_s, urgent=urgent)
            if message is None:
                raise PostboxFullError(box.owner_name, box.capacity)
            return message.msg_id

        return await self._tracked(owner, op)

    async def check(
        self, owner: str, now_s: float, location: Point
    ) -> list[StoredMessage]:
        """Owner retrieval: drain pending messages, cache the location."""
        return await self._tracked(owner, lambda box: box.check(now_s, location))

    async def take_pushes(self, owner: str) -> list[StoredMessage]:
        """Drain the owner's pending push records (forwarder work queue)."""
        return await self._tracked(owner, lambda box: box.take_pushes())

    async def confirm_push(self, owner: str, msg_id: int) -> bool:
        """Confirm a pushed message by wire id (exactly-once path)."""
        return await self._tracked(owner, lambda box: box.confirm_push_id(msg_id))

    async def pending_count(self, owner: str) -> int:
        """Messages currently waiting for one owner."""
        return await self._tracked(owner, lambda box: box.pending_count())

    # -- introspection --------------------------------------------------
    def stats(self) -> dict:
        """A JSON-ready snapshot of shard occupancy and queue depths."""
        return {
            "n_shards": self.n_shards,
            "pending_total": self._pending_total,
            "owners": sum(len(s.boxes) for s in self._shards),
            "queue_depth_max": max(s.queue.qsize() for s in self._shards),
            "shard_ops": [s.ops for s in self._shards],
            "shard_owners": [len(s.boxes) for s in self._shards],
        }
