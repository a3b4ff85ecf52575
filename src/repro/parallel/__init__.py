"""Parallel execution and artifact caching for the hot paths.

See :mod:`repro.parallel.executor` for the pluggable map layer,
:mod:`repro.parallel.seeding` for the deterministic per-task seed
derivation that keeps serial and parallel runs bit-identical, and
:mod:`repro.parallel.cache` for the content-addressed on-disk store of
simulated datasets, fitted models and run checkpoints.
"""

from repro.parallel.cache import ArtifactCache, CacheInfo, EntryStatus
from repro.parallel.executor import (
    EXECUTOR_ENV,
    EXECUTOR_KINDS,
    JOBS_ENV,
    parallel_map,
    resolve_executor,
    resolve_jobs,
)
from repro.parallel.seeding import derive_fold_seeds, spawn_seeds

__all__ = [
    "ArtifactCache",
    "CacheInfo",
    "EXECUTOR_ENV",
    "EXECUTOR_KINDS",
    "EntryStatus",
    "JOBS_ENV",
    "derive_fold_seeds",
    "parallel_map",
    "resolve_executor",
    "resolve_jobs",
    "spawn_seeds",
]
