"""Metrics for the whole process: counters, gauges, and histogram timers.

Zero dependencies, zero background threads, and deliberately boring:
the registry is a flat name → instrument dict, instruments are plain
``__slots__`` objects, and the hot-path cost of an update is one
attribute add.  Subsystems that sit inside tight loops (the broadcast
kernels, the planner) accumulate into local ints and flush **once** per
run, so enabling observability never perturbs the numbers it reports —
the acceptance bar is < 5 % wall-time overhead on the 10k-AP flood
bench with everything on.

Snapshots are deterministic: :meth:`MetricsRegistry.snapshot` returns a
nested plain-dict structure with instruments sorted by name, so two
processes doing the same work serialize byte-identical JSON (timer
*values* are wall-clock and therefore vary; the schema and key order
never do).

Each process holds its own registry; nothing merges registries across
processes.
"""

from __future__ import annotations

import math
import threading


class Counter:
    """A monotone counter (events, items, cache hits)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        """Add ``n`` (default 1) to the counter."""
        self.value += n

    def reset(self) -> None:
        self.value = 0


class Gauge:
    """A point-in-time value (queue depth, alive APs, cache size)."""

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)

    def reset(self) -> None:
        self.value = 0.0


class Timer:
    """A duration histogram: count / total / min / max / mean.

    Observations are seconds.  No bucketing — the consumers here want
    aggregates and regressions, not latency percentiles, and keeping
    the update to four float ops keeps instrumented hot paths honest.
    """

    __slots__ = ("name", "count", "total_s", "min_s", "max_s")

    def __init__(self, name: str):
        self.name = name
        self.count = 0
        self.total_s = 0.0
        self.min_s = math.inf
        self.max_s = 0.0

    def observe(self, duration_s: float) -> None:
        """Record one duration (seconds)."""
        self.count += 1
        self.total_s += duration_s
        if duration_s < self.min_s:
            self.min_s = duration_s
        if duration_s > self.max_s:
            self.max_s = duration_s

    @property
    def mean_s(self) -> float:
        return self.total_s / self.count if self.count else 0.0

    def reset(self) -> None:
        self.count = 0
        self.total_s = 0.0
        self.min_s = math.inf
        self.max_s = 0.0


class MetricsRegistry:
    """A flat, named registry of counters, gauges, and timers.

    Instruments are created on first use and live for the process;
    :meth:`reset` zeroes values but keeps identities, so modules that
    cached an instrument object keep writing to the live one.  Creation
    is locked (experiment sweeps run trial pools and the CLI may touch
    the registry from a pytest worker); updates on the instruments
    themselves are plain attribute ops — single-writer per process by
    construction here.
    """

    def __init__(self) -> None:
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._timers: dict[str, Timer] = {}
        self._lock = threading.Lock()

    # -- instrument accessors (create on demand) -----------------------
    def counter(self, name: str) -> Counter:
        c = self._counters.get(name)
        if c is None:
            with self._lock:
                c = self._counters.setdefault(name, Counter(name))
        return c

    def gauge(self, name: str) -> Gauge:
        g = self._gauges.get(name)
        if g is None:
            with self._lock:
                g = self._gauges.setdefault(name, Gauge(name))
        return g

    def timer(self, name: str) -> Timer:
        t = self._timers.get(name)
        if t is None:
            with self._lock:
                t = self._timers.setdefault(name, Timer(name))
        return t

    # -- snapshots ------------------------------------------------------
    def snapshot(self) -> dict:
        """A deterministic, JSON-ready view of every instrument.

        Keys are sorted; timers expose ``count/total_s/min_s/max_s/
        mean_s`` (``min_s`` reads 0.0 when nothing was observed, so the
        snapshot never contains non-JSON infinities).
        """
        counters = {
            name: c.value for name, c in sorted(self._counters.items())
        }
        gauges = {name: g.value for name, g in sorted(self._gauges.items())}
        timers = {}
        for name, t in sorted(self._timers.items()):
            timers[name] = {
                "count": t.count,
                "total_s": t.total_s,
                "min_s": 0.0 if t.count == 0 else t.min_s,
                "max_s": t.max_s,
                "mean_s": t.mean_s,
            }
        return {"counters": counters, "gauges": gauges, "timers": timers}

    def reset(self) -> None:
        """Zero every instrument (identities are preserved)."""
        with self._lock:
            for c in self._counters.values():
                c.reset()
            for g in self._gauges.values():
                g.reset()
            for t in self._timers.values():
                t.reset()


#: The process-wide registry every instrumented subsystem writes to.
REGISTRY = MetricsRegistry()
