"""The one object callers pass to make a long path fault-tolerant, and
the one runner that honors it.

:class:`RunPolicy` bundles the retry schedule, the failure policy, the
per-task timeout, and (optionally) an artifact cache for checkpoints
plus the run key that scopes them.  ``cross_validate``,
``simulate_suite``, ``suite_dataset`` and ``compare_estimators`` all
accept ``policy=RunPolicy(...)`` and run their units through
:func:`run_units`; passing ``None`` (the default everywhere) keeps the
historical fail-on-first-error behavior byte for byte.

A run is a map of independent units (workloads, folds) whose randomness
is fully resolved before any unit runs.  That makes per-unit
checkpointing safe: a unit's result is identical whether it was
computed in the original run or a resumed one, so a run killed mid-way
and restarted with ``resume`` reproduces the uninterrupted result bit
for bit.  Checkpointed floats survive the JSON round trip exactly:
Python serializes floats via ``repr``, which parses back to the
identical double.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any, Callable, List, Optional, Sequence, Tuple

import numpy as np

from repro.errors import CheckpointError
from repro.resilience.retry import (
    FailPolicy,
    RetryPolicy,
    TaskFailure,
    resilient_map,
)

if TYPE_CHECKING:
    from repro.parallel.cache import ArtifactCache


def jsonable(value: Any) -> Any:
    """Recursively convert numpy containers/scalars for JSON storage."""
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.bool_,)):
        return bool(value)
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    return value


def dataset_fingerprint(dataset: Any) -> str:
    """A short content digest of a dataset, for run-key derivation.

    Two runs resume each other only when they operate on the same data;
    hashing the actual matrix (not the file path) makes that exact.
    """
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(dataset.X).tobytes())
    digest.update(np.ascontiguousarray(dataset.y).tobytes())
    digest.update("|".join(dataset.attributes).encode())
    digest.update(str(dataset.target_name).encode())
    return digest.hexdigest()[:16]


@dataclass(frozen=True)
class RunPolicy:
    """Fault-tolerance configuration for one mapped run.

    Attributes:
        retry: Per-unit retry schedule (default: 3 attempts with
            exponential backoff and seeded jitter).
        fail_policy: What to do about units that exhaust their retries.
        task_timeout: Per-unit wall-clock budget in seconds (``None``
            disables timeouts).
        checkpoint: Artifact cache that stores each completed unit as a
            ``checkpoint`` entry; ``None`` disables checkpointing.
        run_key: Namespace for this run's checkpoints.  Needed (by
            execution time) whenever ``checkpoint`` is set; two runs
            share completed units exactly when they share a run key, so
            keys must encode everything that determines unit results
            (the CLI derives them from content fingerprints, and
            ``suite_dataset`` fills a missing key in automatically).
        resume: Reuse completed units already in the cache.  When
            false, checkpoints are still *written* (so a later resumed
            run can pick them up) but never read.
    """

    retry: RetryPolicy = RetryPolicy()
    fail_policy: FailPolicy = FailPolicy()
    task_timeout: Optional[float] = None
    checkpoint: Optional["ArtifactCache"] = None
    run_key: Optional[str] = None
    resume: bool = False

    def scoped(self, suffix: str) -> "RunPolicy":
        """This policy with its run key narrowed by ``suffix``.

        Used by multi-stage callers (``compare_estimators`` gives each
        method its own checkpoint namespace under the shared run).
        """
        if self.checkpoint is None:
            return self
        return replace(self, run_key=f"{self.require_run_key()}/{suffix}")

    def require_run_key(self) -> str:
        """The run key, or :class:`CheckpointError` when unset."""
        if not self.run_key:
            raise CheckpointError(
                "a RunPolicy with a checkpoint cache needs a run_key"
            )
        return self.run_key


class _Checkpointed:
    """``fn`` on one ``(unit, item)`` job, storing the result before
    returning it.

    Storing from inside the task, in whichever worker runs it, is what
    makes a killed run resumable: every unit that finished before the
    kill is already durable.
    """

    def __init__(
        self,
        fn: Callable[[Any], Any],
        cache: Optional["ArtifactCache"],
        run_key: str,
    ) -> None:
        self.fn = fn
        self.cache = cache
        self.run_key = run_key

    def __call__(self, job: Tuple[str, Any]) -> Any:
        unit, item = job
        result = self.fn(item)
        if self.cache is not None:
            self.cache.store_checkpoint(self.run_key, unit, jsonable(result))
        return result


def run_units(
    fn: Callable[[Any], Any],
    items: Sequence[Any],
    units: Sequence[str],
    n_jobs: Optional[int],
    policy: RunPolicy,
) -> Tuple[List[Any], List[TaskFailure]]:
    """Map ``fn`` over ``items`` under ``policy``, one named unit each.

    With a checkpoint cache, a ``resume`` run first loads the units
    already stored; every unit that then runs stores its result inside
    the worker before returning it.  The pending units are mapped
    through :func:`~repro.resilience.resilient_map` with the policy's
    retries, timeout and failure policy, keyed by their unit names.

    Returns:
        ``(results, failures)``: one result per item in input order,
        with ``None`` in each failed unit's slot.  A result loaded from
        a checkpoint is the :func:`jsonable` form of the computed one,
        so callers convert results the same way whichever path produced
        them.
    """
    cache = policy.checkpoint
    run_key = ""
    results: List[Any] = [None] * len(items)
    if cache is not None:
        run_key = policy.require_run_key()
        if policy.resume:
            results = [cache.load_checkpoint(run_key, unit) for unit in units]
    pending = [index for index, result in enumerate(results) if result is None]
    outcomes = resilient_map(
        _Checkpointed(fn, cache, run_key),
        [(units[index], items[index]) for index in pending],
        n_jobs=n_jobs,
        retry=policy.retry,
        fail_policy=policy.fail_policy,
        task_timeout=policy.task_timeout,
        keys=[units[index] for index in pending],
    )
    failures: List[TaskFailure] = []
    for index, outcome in zip(pending, outcomes):
        if isinstance(outcome, TaskFailure):
            failures.append(outcome)
        else:
            results[index] = outcome
    return results, failures
