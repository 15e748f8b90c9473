"""``repro.obs``: the unified observability layer.

Three zero-dependency pieces every other subsystem can lean on:

- :mod:`~repro.obs.metrics` — a process-wide :class:`MetricsRegistry`
  of counters, gauges, and histogram timers with deterministic
  snapshots; hot loops accumulate locally and flush once per run.
- :mod:`~repro.obs.spans` — nestable ``with span(name):`` trace
  contexts that feed the registry and, when a sink is installed
  (``--trace out.jsonl`` on the CLI), emit a JSONL event stream.
- :mod:`~repro.obs.manifest` — :class:`RunManifest` (git SHA, config
  hash, seed, wall/CPU time, peak RSS) embedded in every scenario
  result and pipeline-benchmark host record so results carry their
  provenance.

This package imports nothing from the rest of ``repro`` — it sits
below every layer, so the graph core, both broadcast engines, the
trial runner, and the scenario driver can all instrument through it
without cycles.
"""

from .manifest import RunManifest, config_hash, repo_git_sha
from .metrics import REGISTRY, Counter, Gauge, MetricsRegistry, Timer
from .spans import (
    close_trace,
    set_trace_path,
    set_trace_sink,
    span,
    summarize_trace,
    trace_enabled,
)

__all__ = [
    "REGISTRY",
    "Counter",
    "Gauge",
    "MetricsRegistry",
    "Timer",
    "span",
    "set_trace_path",
    "set_trace_sink",
    "close_trace",
    "trace_enabled",
    "summarize_trace",
    "RunManifest",
    "config_hash",
    "repo_git_sha",
]
