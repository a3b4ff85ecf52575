"""Fault-tolerant execution: retries, timeouts, checkpoints, chaos.

One crashed worker or truncated cache file must never throw away a
whole collection or evaluation run.  This package provides the four
pieces that guarantee it:

* :mod:`repro.resilience.retry` — per-unit retries with exponential
  backoff and seeded jitter, per-task timeouts, and the three failure
  policies (``fail_fast``, ``collect_errors``, ``min_success_fraction``);
* :mod:`repro.resilience.checkpoint` — checksummed per-unit
  checkpoints so killed runs resume bit-identically;
* :mod:`repro.resilience.policy` — :class:`RunPolicy`, the single
  argument the execution paths take;
* :mod:`repro.resilience.faults` — the deterministic fault-injection
  harness (``REPRO_FAULTS``) that makes all of the above testable.

The invariant every piece preserves: resumed, retried, and fault-ridden
runs that complete are **bit-identical** to clean ones, because unit
randomness is pre-spawned per unit and faults only decide *whether* a
unit fails, never *what* it computes.
"""

from repro.resilience.checkpoint import (
    CheckpointStore,
    dataset_fingerprint,
    jsonable,
)
from repro.resilience.faults import (
    FAULTS_ENV,
    KNOWN_SITES,
    FaultPlan,
    FaultSpec,
    active_plan,
    maybe_inject,
    reset_faults,
)
from repro.resilience.policy import RunPolicy
from repro.resilience.retry import (
    COLLECT_ERRORS,
    FAIL_FAST,
    MIN_SUCCESS,
    POLICY_KINDS,
    FailPolicy,
    RetryPolicy,
    TaskFailure,
    resilient_map,
    run_with_timeout,
    split_failures,
)

__all__ = [
    "COLLECT_ERRORS",
    "CheckpointStore",
    "FAIL_FAST",
    "FAULTS_ENV",
    "FailPolicy",
    "FaultPlan",
    "FaultSpec",
    "KNOWN_SITES",
    "MIN_SUCCESS",
    "POLICY_KINDS",
    "RetryPolicy",
    "RunPolicy",
    "TaskFailure",
    "active_plan",
    "dataset_fingerprint",
    "jsonable",
    "maybe_inject",
    "reset_faults",
    "resilient_map",
    "run_with_timeout",
    "split_failures",
]
