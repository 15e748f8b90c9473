"""A from-scratch discrete-event simulation engine.

The paper's evaluation uses SimPy; this module provides the subset of
its semantics CityMesh needs, implemented on a binary-heap event queue
with generator-based processes:

- :class:`Environment` owns simulated time and the event queue,
- :class:`Event` is a one-shot occurrence with callbacks,
- ``env.timeout(delay)`` creates an event that fires after a delay,
- ``env.process(gen)`` runs a generator that ``yield``s events and is
  resumed (with the event's value) when they fire.

Determinism: events scheduled for the same instant fire in scheduling
order (a monotonically increasing sequence number breaks ties), so a
seeded simulation replays identically.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable, Generator

_PENDING = object()


class SimulationError(RuntimeError):
    """Raised for engine misuse (double trigger, bad run target, …)."""


class Event:
    """A one-shot occurrence that callbacks and processes can wait on."""

    def __init__(self, env: "Environment"):
        self.env = env
        self.callbacks: list[Callable[["Event"], None]] = []
        self._value: Any = _PENDING
        self._ok = True
        self._scheduled = False

    @property
    def triggered(self) -> bool:
        """Whether the event has a value and is (or will be) processed."""
        return self._value is not _PENDING

    @property
    def ok(self) -> bool:
        """Whether the event succeeded (meaningless until triggered)."""
        return self._ok

    @property
    def value(self) -> Any:
        """The event's value.

        Raises:
            SimulationError: if the event has not triggered yet.
        """
        if self._value is _PENDING:
            raise SimulationError("event value accessed before trigger")
        return self._value

    def succeed(self, value: Any = None) -> "Event":
        """Trigger the event successfully with an optional value."""
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        self._ok = True
        self._value = value
        self.env._enqueue(self, delay=0.0)
        return self

    def fail(self, exception: BaseException) -> "Event":
        """Trigger the event as failed; waiting processes get the
        exception thrown into them."""
        if self._value is not _PENDING:
            raise SimulationError("event already triggered")
        if not isinstance(exception, BaseException):
            raise TypeError("fail() needs an exception instance")
        self._ok = False
        self._value = exception
        self.env._enqueue(self, delay=0.0)
        return self


class Timeout(Event):
    """An event that fires ``delay`` time units after creation."""

    def __init__(self, env: "Environment", delay: float, value: Any = None):
        if delay < 0:
            raise ValueError(f"timeout delay must be non-negative, got {delay}")
        super().__init__(env)
        self.delay = delay
        self._ok = True
        self._value = value
        env._enqueue(self, delay=delay)


class Process(Event):
    """Runs a generator; the process event triggers when it returns.

    The generator ``yield``s :class:`Event` instances and is resumed
    with ``event.value`` when they fire (or has the exception thrown in
    for failed events).
    """

    def __init__(self, env: "Environment", generator: Generator[Event, Any, Any]):
        super().__init__(env)
        self._generator = generator
        # Bootstrap: resume the process at the current instant.
        bootstrap = Event(env)
        bootstrap.callbacks.append(self._resume)
        bootstrap.succeed()

    def _resume(self, trigger: Event) -> None:
        try:
            if trigger.ok:
                target = self._generator.send(trigger.value)
            else:
                target = self._generator.throw(trigger.value)
        except StopIteration as stop:
            super().succeed(stop.value)
            return
        except BaseException as exc:  # noqa: BLE001 - propagate into event
            super().fail(exc)
            return
        if not isinstance(target, Event):
            exc = SimulationError(
                f"process yielded {target!r}; processes must yield Events"
            )
            self._generator.close()
            super().fail(exc)
            return
        if target.triggered and target._scheduled is False:
            # Already-processed event: resume immediately at this instant.
            immediate = Event(self.env)
            immediate.callbacks.append(self._resume)
            if target.ok:
                immediate.succeed(target.value)
            else:
                immediate._ok = False
                immediate._value = target.value
                self.env._enqueue(immediate, delay=0.0)
        else:
            target.callbacks.append(self._resume)


class Environment:
    """Simulation environment: clock plus event queue."""

    def __init__(self, initial_time: float = 0.0):
        self.now = initial_time
        self._queue: list[tuple[float, int, Event]] = []
        self._sequence = 0

    # ------------------------------------------------------------------
    # Event creation
    # ------------------------------------------------------------------
    def event(self) -> Event:
        """A fresh untriggered event."""
        return Event(self)

    def timeout(self, delay: float, value: Any = None) -> Timeout:
        """An event firing ``delay`` time units from now."""
        return Timeout(self, delay, value)

    def process(self, generator: Generator[Event, Any, Any]) -> Process:
        """Register a generator as a process starting now."""
        return Process(self, generator)

    # ------------------------------------------------------------------
    # Scheduling and execution
    # ------------------------------------------------------------------
    def _enqueue(self, event: Event, delay: float) -> None:
        event._scheduled = True
        heapq.heappush(self._queue, (self.now + delay, self._sequence, event))
        self._sequence += 1

    def peek(self) -> float:
        """Time of the next scheduled event (inf when idle)."""
        return self._queue[0][0] if self._queue else float("inf")

    def step(self) -> None:
        """Process exactly one event.

        Raises:
            SimulationError: if the queue is empty.
        """
        if not self._queue:
            raise SimulationError("step() on an empty event queue")
        time, _, event = heapq.heappop(self._queue)
        self.now = time
        event._scheduled = False
        callbacks, event.callbacks = event.callbacks, []
        for callback in callbacks:
            callback(event)
        if not event.ok and not callbacks:
            # A failed event nobody waits on is a programming error.
            raise event.value

    def run(self, until: "float | Event | None" = None) -> Any:
        """Run the simulation.

        Args:
            until: ``None`` runs until the queue drains; a number runs
                until that simulated time; an :class:`Event` runs until
                it has been processed and returns its value.

        Raises:
            SimulationError: for an ``until`` event that can never
                trigger (queue drained first) or a bad target time.
        """
        if until is None:
            while self._queue:
                self.step()
            return None
        if isinstance(until, Event):
            finished = False

            def _mark(_: Event) -> None:
                nonlocal finished
                finished = True

            if until.triggered and not until._scheduled:
                return until.value
            until.callbacks.append(_mark)
            while not finished:
                if not self._queue:
                    raise SimulationError("run(until=event): queue drained first")
                self.step()
            if not until.ok:
                raise until.value
            return until.value
        target = float(until)
        if target < self.now:
            raise SimulationError(f"run(until={target}) is in the past (now={self.now})")
        while self._queue and self._queue[0][0] <= target:
            self.step()
        self.now = target
        return None

