"""The geocast board: publish to a place, poll from a place.

§1's "geospatial messaging" as a *service* primitive.  The simulation
layer (:mod:`repro.apps.geocast`) answers "which buildings would a
geocast broadcast reach through the mesh"; the service layer needs the
application-facing half: a message addressed to a disc ("anyone near
the shelter on 5th street") is stored on the board, and any device
that polls from inside the disc while the message is live receives it.

The board is a uniform grid index over disc bounding boxes — publish
inserts the message id into every covered cell, poll checks one cell
and does the exact distance test — so both operations are O(messages
near the point), not O(all messages).

Expiry mirrors the PR 8 ``Postbox`` pending-map refactor: instead of a
full-board rescan-and-rebuild, live messages sit in an expiry-ordered
heap and :meth:`sweep` pops the expired *prefix* — O(dropped · log n),
never O(live).  Each drop removes the id from exactly the cells its
disc covered, so the index shrinks with the board instead of waiting
for a rebuild.  The ``geoboard.scan`` / ``geoboard.expired`` counters
record how much work each sweep did.

The board is event-loop-local state (the service runs it inside one
asyncio loop), so there is no locking; a full board rejects publishes
with the typed :class:`GeocastBoardFullError` rather than evicting
silently.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass

from ..obs import REGISTRY
from .errors import BadRequestError, GeocastBoardFullError

_M_PUBLISHED = REGISTRY.counter("service.geocast.published")
_M_POLL_HITS = REGISTRY.counter("service.geocast.poll_hits")
#: Messages dropped because their TTL ran out (sweep or lazy poll prune).
_M_EXPIRED = REGISTRY.counter("geoboard.expired")
#: Heap entries examined by sweeps (the bounded-scan work counter).
_M_SCAN = REGISTRY.counter("geoboard.scan")

#: Default message time-to-live (one epoch of a typical scenario).
DEFAULT_TTL_S = 4 * 3600.0


@dataclass(frozen=True)
class GeocastMessage:
    """One live geocast: a payload pinned to a disc for a while."""

    geocast_id: int
    x: float
    y: float
    radius: float
    payload: bytes
    posted_s: float
    ttl_s: float

    def covers(self, x: float, y: float) -> bool:
        return (x - self.x) ** 2 + (y - self.y) ** 2 <= self.radius**2

    def expired(self, now_s: float) -> bool:
        return now_s - self.posted_s > self.ttl_s


class GeocastBoard:
    """Grid-indexed geocast storage with expiry-ordered lazy sweeps."""

    def __init__(
        self,
        cell_size: float = 200.0,
        max_radius: float = 2000.0,
        max_messages: int = 100_000,
    ):
        if cell_size <= 0:
            raise ValueError("cell size must be positive")
        self.cell_size = cell_size
        self.max_radius = max_radius
        self.max_messages = max_messages
        self._messages: dict[int, GeocastMessage] = {}
        self._cells: dict[tuple[int, int], list[int]] = {}
        # Expiry-ordered heap of (expires_s, geocast_id); entries whose
        # id already left ``_messages`` (lazy poll prune) are skipped.
        self._expiry: list[tuple[float, int]] = []
        self._next_id = 1

    def _cell(self, x: float, y: float) -> tuple[int, int]:
        return (int(x // self.cell_size), int(y // self.cell_size))

    def _covered_cells(self, message: GeocastMessage) -> list[tuple[int, int]]:
        r = message.radius
        x0, y0 = self._cell(message.x - r, message.y - r)
        x1, y1 = self._cell(message.x + r, message.y + r)
        return [(cx, cy) for cx in range(x0, x1 + 1) for cy in range(y0, y1 + 1)]

    def _validate(self, radius: float, ttl_s: float) -> None:
        if radius <= 0 or radius > self.max_radius:
            raise BadRequestError(
                f"geocast radius must be in (0, {self.max_radius:g}] m"
            )
        if ttl_s <= 0:
            raise BadRequestError("geocast ttl must be positive")

    def _unindex(self, message: GeocastMessage) -> None:
        """Remove one message's id from exactly the cells it covered."""
        for cell_key in self._covered_cells(message):
            cell = self._cells.get(cell_key)
            if cell is None:
                continue
            try:
                cell.remove(message.geocast_id)
            except ValueError:
                pass  # a poll already pruned this cell entry
            if not cell:
                del self._cells[cell_key]

    def publish(
        self,
        x: float,
        y: float,
        radius: float,
        payload: bytes,
        now_s: float,
        ttl_s: float = DEFAULT_TTL_S,
    ) -> int:
        """Pin a payload to the disc around ``(x, y)``; returns its id.

        Raises:
            BadRequestError: non-positive radius/TTL or a radius above
                the board's cap (an unbounded radius would touch every
                cell).
            GeocastBoardFullError: the board is at its message cap
                *after* sweeping the expired prefix — a board full of
                stale messages clears itself on the next publish, no
                poll traffic required.
        """
        self._validate(radius, ttl_s)
        if len(self._messages) >= self.max_messages:
            self.sweep(now_s)  # a full board is often mostly stale
            if len(self._messages) >= self.max_messages:
                raise GeocastBoardFullError(
                    f"board at capacity ({self.max_messages} live geocasts)"
                )
        message = GeocastMessage(
            geocast_id=self._next_id,
            x=x,
            y=y,
            radius=radius,
            payload=payload,
            posted_s=now_s,
            ttl_s=ttl_s,
        )
        self._next_id += 1
        self._messages[message.geocast_id] = message
        for cell in self._covered_cells(message):
            self._cells.setdefault(cell, []).append(message.geocast_id)
        heapq.heappush(
            self._expiry, (message.posted_s + message.ttl_s, message.geocast_id)
        )
        _M_PUBLISHED.inc()
        return message.geocast_id

    def poll(
        self, x: float, y: float, now_s: float, limit: int = 50
    ) -> list[GeocastMessage]:
        """Live geocasts whose disc covers ``(x, y)``, oldest first.

        Expired entries found in the touched cell are pruned in
        passing, so hot cells stay tight between sweeps.
        """
        cell = self._cells.get(self._cell(x, y))
        if not cell:
            return []
        hits: list[GeocastMessage] = []
        stale: list[int] = []
        dropped = 0
        for geocast_id in cell:
            message = self._messages.get(geocast_id)
            if message is None or message.expired(now_s):
                stale.append(geocast_id)
                if message is not None:
                    self._messages.pop(geocast_id, None)
                    dropped += 1
                continue
            if message.covers(x, y):
                hits.append(message)
        if stale:
            stale_set = set(stale)
            cell[:] = [g for g in cell if g not in stale_set]
        if dropped:
            _M_EXPIRED.inc(dropped)
        hits.sort(key=lambda m: m.geocast_id)
        _M_POLL_HITS.inc(len(hits[:limit]))
        return hits[:limit]

    def sweep(self, now_s: float, limit: int | None = None) -> int:
        """Pop the expired prefix of the expiry heap (at most ``limit``
        drops when bounded); each drop is unindexed from exactly the
        cells its disc covered.  Returns the number dropped.
        """
        dropped = 0
        scanned = 0
        while self._expiry and self._expiry[0][0] < now_s:
            if limit is not None and dropped >= limit:
                break
            scanned += 1
            _, geocast_id = heapq.heappop(self._expiry)
            message = self._messages.get(geocast_id)
            if message is None:
                continue  # already pruned lazily by a poll
            del self._messages[geocast_id]
            self._unindex(message)
            dropped += 1
        if scanned:
            _M_SCAN.inc(scanned)
        if dropped:
            _M_EXPIRED.inc(dropped)
        return dropped

    def live_count(self) -> int:
        """Messages currently on the board (stale entries included
        until a poll or sweep prunes them)."""
        return len(self._messages)
