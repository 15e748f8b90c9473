"""The trial harness for the experiment sweeps.

Every paper artifact is a sweep of independent trials: hundreds of
:func:`~repro.experiments.common.attempt_delivery` runs, one per
sampled building pair.  :class:`TrialRunner` runs them in-process, in
submission order, against one prebuilt world:

- trials are seeded individually via :func:`seed_for` (a stable
  keyed hash of ``(base_seed, trial_index)``) instead of sharing one
  sequential RNG, so a trial's randomness does not depend on which
  trials ran before it;
- a trial that raises surfaces as a :class:`TrialError` naming its
  index in the batch, with the traceback.

There is no process pool: on a 2-CPU host two workers lost wall time on
most sweeps (EXPERIMENTS.md, "Prove or remove ``TrialRunner``"), so
``workers`` accepts only ``1``.
"""

from __future__ import annotations

import hashlib
import random
import time
import traceback
from dataclasses import dataclass
from functools import partial
from typing import Any, Callable, Iterable, Sequence

from ..obs import REGISTRY
from ..sim import SimParams
from .common import DeliveryResult, World, attempt_delivery

_M_RUNS = REGISTRY.counter("trial_runner.runs")
_M_TRIALS = REGISTRY.counter("trial_runner.trials")
_M_RUN_S = REGISTRY.timer("trial_runner.run_s")
_M_TRIAL_S = REGISTRY.timer("trial_runner.trial_s")


def seed_for(base_seed: int, trial_index: int, stream: str = "") -> int:
    """A deterministic, platform-stable 63-bit seed for one trial.

    Derived by hashing rather than by offsetting so that nearby trial
    indices get statistically unrelated RNG streams, and so the value
    is identical across processes and platforms (``hash()`` is not).

    ``stream`` names an independent family of trials (e.g. one scenario
    sweep's per-epoch flows, keyed by the scenario spec) so different
    workloads sharing one base seed never collide; the empty default
    reproduces the historical two-argument seeds exactly.
    """
    key = (
        f"{base_seed}:{trial_index}"
        if not stream
        else f"{base_seed}:{stream}:{trial_index}"
    )
    digest = hashlib.blake2b(key.encode(), digest_size=8).digest()
    return int.from_bytes(digest, "big") >> 1


class TrialError(RuntimeError):
    """One trial raised inside the runner.

    Carries the failing trial's index into the submitted batch and the
    full traceback formatted where the exception happened; the original
    exception is chained as ``__cause__``.
    """

    def __init__(self, trial_index: int, error: str, worker_traceback: str):
        super().__init__(
            f"trial {trial_index} raised {error}\n"
            f"--- traceback ---\n"
            f"{worker_traceback.rstrip()}"
        )
        self.trial_index = trial_index
        self.error = error
        self.worker_traceback = worker_traceback


@dataclass(frozen=True)
class DeliveryTrial:
    """One independently seeded delivery attempt."""

    src_building: int
    dst_building: int
    seed: int


def delivery_trials(
    pairs: Iterable[tuple[int, int]], base_seed: int
) -> list[DeliveryTrial]:
    """Wrap building pairs as trials with per-trial deterministic seeds."""
    return [
        DeliveryTrial(s, d, seed_for(base_seed, i))
        for i, (s, d) in enumerate(pairs)
    ]


def delivery_trial(
    world: World, trial: DeliveryTrial, params: SimParams | None = None
) -> DeliveryResult:
    """Run one delivery attempt from its own seeded RNG."""
    return attempt_delivery(
        world,
        trial.src_building,
        trial.dst_building,
        random.Random(trial.seed),
        params=params,
    )


class TrialRunner:
    """Run independent experiment trials in-process, in order.

    Args:
        workers: kept for the callers that name it; only ``1`` is
            accepted.
    """

    def __init__(self, workers: int = 1):
        if workers != 1:
            raise ValueError(
                f"trials run in-process: workers must be 1, got {workers}"
            )

    def close(self) -> None:
        """Nothing to release; kept so callers can own a runner."""

    def __enter__(self) -> "TrialRunner":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()

    def map(
        self,
        fn: Callable[..., Any],
        items: Sequence[Any],
        world: World | None = None,
    ) -> list[Any]:
        """Ordered map over independent trial items.

        With a ``world`` each call is ``fn(world, item)``, otherwise
        ``fn(item)``.  The first trial that raises stops the run with a
        :class:`TrialError` carrying its index.
        """
        items = list(items)
        started = time.perf_counter()
        results: list[Any] = []
        for index, item in enumerate(items):
            t0 = time.perf_counter()
            try:
                results.append(fn(item) if world is None else fn(world, item))
            except Exception as exc:
                raise TrialError(
                    trial_index=index,
                    error=repr(exc),
                    worker_traceback=traceback.format_exc(),
                ) from exc
            finally:
                _M_TRIAL_S.observe(time.perf_counter() - t0)
        _M_RUNS.inc()
        _M_TRIALS.inc(len(items))
        _M_RUN_S.observe(time.perf_counter() - started)
        return results

    def run_deliveries(
        self,
        world: World,
        trials: Sequence[DeliveryTrial],
        params: SimParams | None = None,
    ) -> list[DeliveryResult]:
        """Run delivery trials against one world, in trial order."""
        fn: Callable[..., Any] = delivery_trial
        if params is not None:
            fn = partial(delivery_trial, params=params)
        return self.map(fn, trials, world=world)
