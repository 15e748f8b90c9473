"""Run manifests: who produced this JSON blob, from what, at what cost.

Every scenario result (and the pipeline benchmark's host record)
carries a ``manifest`` block identifying the run: the git SHA the code
was at, a stable hash of the configuration that produced it, the seed,
and the run's resource footprint (wall time, CPU time, peak RSS).  Two
results can then be compared knowing whether they came from the same
code and config.

Usage::

    manifest = RunManifest.begin(config=spec, seed=spec.world.seed)
    ...  # the run
    record["manifest"] = manifest.finish().to_dict()

The manifest is deliberately the only non-deterministic block in any
result JSON: everything outside it stays byte-identical across runs,
and consumers treat ``manifest`` as metadata, never as a metric.
"""

from __future__ import annotations

import hashlib
import json
import platform
import subprocess
import sys
import time

try:  # pragma: no cover - absent on non-unix platforms
    import resource
except ImportError:  # pragma: no cover
    resource = None  # type: ignore[assignment]

_GIT_SHA_CACHE: str | None = None
_GIT_SHA_KNOWN = False


def repo_git_sha() -> str | None:
    """The current ``HEAD`` SHA, or None outside a git checkout.

    Memoised per process: manifests are minted once per run but test
    suites mint hundreds, and a subprocess per mint would dominate.
    """
    global _GIT_SHA_CACHE, _GIT_SHA_KNOWN
    if _GIT_SHA_KNOWN:
        return _GIT_SHA_CACHE
    sha: str | None = None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            timeout=5,
        )
        if out.returncode == 0:
            sha = out.stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        sha = None
    _GIT_SHA_CACHE = sha
    _GIT_SHA_KNOWN = True
    return sha


def config_hash(config: object) -> str:
    """A short stable hash of any JSON-encodable-ish configuration.

    Dataclasses, dicts, tuples, strings all work: non-JSON values fall
    back to ``repr``, and keys are sorted, so equal configs hash equal
    across processes and platforms (unlike built-in ``hash``).
    """
    canonical = json.dumps(config, sort_keys=True, default=repr)
    return hashlib.blake2b(canonical.encode(), digest_size=8).hexdigest()


def _peak_rss_kb() -> int | None:
    if resource is None:
        return None
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    # Linux reports KiB; macOS reports bytes.
    if sys.platform == "darwin":  # pragma: no cover - linux CI
        rss //= 1024
    return int(rss)


class RunManifest:
    """Identity and cost of one run; see the module docstring.

    Create with :meth:`begin` before the work, call :meth:`finish`
    after it, then :meth:`to_dict` to embed.  ``finish`` is idempotent
    and implied by ``to_dict`` so a manifest can never be embedded
    half-filled.
    """

    def __init__(self, config: object = None, seed: int | None = None):
        self.git_sha = repo_git_sha()
        self.config_hash = config_hash(config) if config is not None else None
        self.seed = seed
        self.started_utc = time.strftime(
            "%Y-%m-%dT%H:%M:%SZ", time.gmtime()
        )
        self.python = platform.python_version()
        self.platform = sys.platform
        self.wall_s: float | None = None
        self.cpu_s: float | None = None
        self.peak_rss_kb: int | None = None
        self._t0 = time.perf_counter()
        self._cpu0 = time.process_time()

    @classmethod
    def begin(cls, config: object = None, seed: int | None = None) -> "RunManifest":
        """Start the clock on a new run."""
        return cls(config=config, seed=seed)

    def finish(self) -> "RunManifest":
        """Stamp wall/CPU time and peak RSS (idempotent; returns self)."""
        if self.wall_s is None:
            self.wall_s = time.perf_counter() - self._t0
            self.cpu_s = time.process_time() - self._cpu0
            self.peak_rss_kb = _peak_rss_kb()
        return self

    def to_dict(self) -> dict:
        """A JSON-ready view (finishes the manifest if still running)."""
        self.finish()
        return {
            "git_sha": self.git_sha,
            "config_hash": self.config_hash,
            "seed": self.seed,
            "started_utc": self.started_utc,
            "wall_s": self.wall_s,
            "cpu_s": self.cpu_s,
            "peak_rss_kb": self.peak_rss_kb,
            "python": self.python,
            "platform": self.platform,
        }
