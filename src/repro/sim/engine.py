"""A minimal discrete-event clock.

The paper's evaluation uses SimPy; the two event loops here (the
broadcast oracle and the shared-air traffic model) need only its core:
a clock, a heap of timed callbacks, and a run loop.  Events scheduled
for the same instant fire in scheduling order (a monotonically
increasing sequence number breaks ties), so a seeded simulation
replays identically.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable


class Environment:
    """Simulated time plus a queue of timed callbacks."""

    def __init__(self) -> None:
        self.now = 0.0
        self._queue: list[tuple[float, int, Callable[[Any], None], Any]] = []
        self._sequence = 0

    def schedule(self, delay: float, callback: Callable[[Any], None], arg: Any) -> None:
        """Call ``callback(arg)`` ``delay`` time units from now.

        Raises:
            ValueError: for a negative delay.
        """
        if delay < 0:
            raise ValueError(f"delay must be non-negative, got {delay}")
        heapq.heappush(self._queue, (self.now + delay, self._sequence, callback, arg))
        self._sequence += 1

    def run(self, until: float = float("inf")) -> None:
        """Fire events in ``(time, sequence)`` order while their time is
        at most ``until``; later events stay queued for the next run."""
        queue = self._queue
        while queue and queue[0][0] <= until:
            self.now, _, callback, arg = heapq.heappop(queue)
            callback(arg)
