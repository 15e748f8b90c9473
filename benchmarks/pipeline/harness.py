"""Shared measuring tools of the pipeline benchmark.

Everything here observes the program from outside: a clock that only
runs inside timed regions, an in-memory span recorder, percentile and
block-rate reducers, ``/proc`` readers for the server child, and the
host record.  Nothing in this file knows a workload.
"""

from __future__ import annotations

import json
import math
import os
import platform
import resource
import statistics
import time
from dataclasses import dataclass, field

#: Connections the generator may hold open at once (see README, "Host
#: and load sizing"); the run refuses below this many usable CPUs.
MIN_CPUS = 2
#: Every await on the server is bounded by this, so a hang is a counted
#: error and never a stuck benchmark.
OP_TIMEOUT_S = 5.0


#: The CPUs this process may run on, read before ``pin_generator``
#: narrows the set.
_CPUS = sorted(os.sched_getaffinity(0))


def usable_cpus() -> int:
    return len(_CPUS)


def connection_cap() -> int:
    return min(2, usable_cpus())


def pin_generator() -> None:
    """Keep the generator on the first usable CPU for the whole run.

    The server child gets the last one (``server_cpu``).  Unpinned, the
    kernel moves the two processes between the cores and the same seed's
    median round trip differs by 10 % from run to run on this host.
    """
    os.sched_setaffinity(0, {_CPUS[0]})


def server_cpu() -> int:
    return _CPUS[-1]


def host_record() -> dict:
    """Where the numbers were taken; printed with and stored in results."""
    import numpy

    from repro.obs import RunManifest

    model = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "usable_cpus": usable_cpus(),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "network": "loopback",
        "manifest": RunManifest.begin().to_dict(),
    }


# ----------------------------------------------------------------------
# Clock
# ----------------------------------------------------------------------
class MeasuredClock:
    """Seconds spent inside timed regions only.

    Output checks, reference re-simulation and world rebuilds between
    rounds happen while the clock is paused, so ``--seconds`` bounds
    measured work and block rates never include harness bookkeeping.
    """

    def __init__(self, server_cpu=None) -> None:
        self.total_s = 0.0
        self.cpu_s = 0.0  # this process, inside timed regions
        self.server_cpu_s = 0.0  # the server child, same regions
        self._server_cpu = server_cpu
        self._since: tuple[float, float, float] | None = None

    def _server(self) -> float:
        return self._server_cpu() if self._server_cpu is not None else 0.0

    def start(self) -> None:
        self._since = (self._server(), time.process_time(), time.perf_counter())

    def stop(self) -> float:
        """Pause; returns the length of the region just closed."""
        assert self._since is not None
        span_s = time.perf_counter() - self._since[2]
        self.cpu_s += time.process_time() - self._since[1]
        self.server_cpu_s += self._server() - self._since[0]
        self.total_s += span_s
        self._since = None
        return span_s


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class _OpenSpan:
    __slots__ = ("row",)

    def __init__(self, row: list):
        self.row = row

    def __enter__(self) -> int:
        self.row[1] = time.perf_counter()
        return self.row[0]

    def __exit__(self, *exc_info: object) -> None:
        self.row[2] = time.perf_counter()


class _NullSpan:
    def __enter__(self) -> int:
        return -1

    def __exit__(self, *exc_info: object) -> None:
        return None


_NULL_SPAN = _NullSpan()


class Tracer:
    """In-memory span recorder; written out as JSONL when the run ends.

    A span row is ``[id, start, end, name, parent, op, attrs]``: ``op``
    is the message / request / epoch the span belongs to and ``parent``
    the id of the span that caused it (-1 for a root).  With
    ``enabled`` false every ``span()`` is one shared no-op object, so
    the untraced path pays a method call and nothing else.
    """

    def __init__(self) -> None:
        self.enabled = False
        self.rows: list[list] = []

    def span(self, name: str, parent: int = -1, op: int = -1, attrs: dict | None = None):
        if not self.enabled:
            return _NULL_SPAN
        row = [len(self.rows), 0.0, 0.0, name, parent, op, attrs]
        self.rows.append(row)
        return _OpenSpan(row)

    def add(self, name: str, start: float, end: float, parent: int = -1,
            op: int = -1, attrs: dict | None = None) -> int:
        """Record a span timed elsewhere (e.g. replayed driver spans)."""
        row = [len(self.rows), start, end, name, parent, op, attrs]
        self.rows.append(row)
        return row[0]

    def durations(self, name: str) -> list[float]:
        return [r[2] - r[1] for r in self.rows if r[3] == name]

    def self_times(self) -> dict[str, float]:
        """Total self time per span name: duration minus child spans."""
        child_s = [0.0] * len(self.rows)
        for r in self.rows:
            if r[4] >= 0:
                child_s[r[4]] += r[2] - r[1]
        out: dict[str, float] = {}
        for r in self.rows:
            out[r[3]] = out.get(r[3], 0.0) + (r[2] - r[1]) - child_s[r[0]]
        return out

    def write_jsonl(self, path: str, workload: str) -> None:
        base = self.rows[0][1] if self.rows else 0.0
        with open(path, "w") as fh:
            for sid, start, end, name, parent, op, attrs in self.rows:
                event = {
                    "workload": workload,
                    "id": sid,
                    "name": name,
                    "parent": parent,
                    "op": op,
                    "start_s": start - base,
                    "end_s": end - base,
                }
                if attrs:
                    event.update(attrs)
                fh.write(json.dumps(event, sort_keys=True) + "\n")


# ----------------------------------------------------------------------
# Reducers
# ----------------------------------------------------------------------
def quantile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank quantile of an already sorted list (0.0 if empty)."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]


def p50_ms(values: list[float]) -> float:
    return statistics.median(values) * 1e3 if values else 0.0


def pq_ms(values: list[float], q: float) -> float:
    return quantile(sorted(values), q) * 1e3


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


@dataclass
class Block:
    """One round of measured work: the unit rates are taken over."""

    ops: int  # operations attempted
    done: int  # operations that completed (confirmed / answered / stepped)
    timed_s: float
    latencies: list[float] = field(default_factory=list)  # of the done ones
    traced: bool = False
    errors: int = 0


def tail_ms(blocks: list[Block], q: float, per_block: bool) -> tuple[float, int]:
    """The workload's tail percentile and the samples beyond it.

    ``per_block`` (rounds large enough to keep ten samples beyond the
    percentile each): the median block's percentile, so one scheduler
    stall costs one block.  Otherwise pooled over the run.
    """
    if per_block:
        tails = [quantile(sorted(b.latencies), q) for b in blocks]
        beyond = min((int(len(b.latencies) * (1.0 - q)) for b in blocks), default=0)
        return (statistics.median(tails) * 1e3 if tails else 0.0), beyond
    pooled = sorted(lat for b in blocks for lat in b.latencies)
    return quantile(pooled, q) * 1e3, int(len(pooled) * (1.0 - q))


def median_rate(blocks: list[Block]) -> float:
    """Completed operations per measured second, median block."""
    rates = [b.done / b.timed_s for b in blocks if b.timed_s > 0]
    return statistics.median(rates) if rates else 0.0


# ----------------------------------------------------------------------
# /proc readers
# ----------------------------------------------------------------------
_CLK_TCK = os.sysconf("SC_CLK_TCK")


def proc_cpu_s(pid: int) -> float:
    """utime + stime of one process, in seconds."""
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _CLK_TCK


def proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
