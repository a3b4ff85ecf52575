"""Pluggable map-style executor for the package's hot loops.

Every repeated-fit path in the reproduction — cross-validation folds,
bagged ensemble members, per-workload suite simulation — is a map of an
independent, deterministic task over a list of inputs.  This module
gives those paths one shared knob:

* ``n_jobs=1`` (the default) runs the plain serial loop, byte-for-byte
  the behavior the package always had;
* ``n_jobs=N`` fans the map out over ``N`` workers;
* ``n_jobs=-1`` uses every available core;
* ``n_jobs=None`` defers to the ``REPRO_JOBS`` environment variable
  (falling back to serial), so the CLI and CI can set a machine-wide
  default without touching call sites.

The backend is chosen by :func:`resolve_executor`: processes for
CPU-bound work (the default when ``n_jobs > 1``), threads when the
mapped function or its arguments cannot be pickled, or an explicit
override through ``REPRO_EXECUTOR`` (``serial`` / ``threads`` /
``processes``).  Whatever the backend, results come back in input
order, so callers are agnostic to where the work actually ran.
"""

from __future__ import annotations

import os
import pickle
import warnings
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from typing import Callable, List, Optional, Sequence, TypeVar

from repro.errors import ConfigError

#: Environment variable supplying the default worker count.
JOBS_ENV = "REPRO_JOBS"

#: Environment variable forcing a backend (serial / threads / processes).
EXECUTOR_ENV = "REPRO_EXECUTOR"

EXECUTOR_KINDS = ("serial", "threads", "processes")

T = TypeVar("T")
R = TypeVar("R")


def resolve_jobs(n_jobs: Optional[int] = None) -> int:
    """Normalize an ``n_jobs`` request to a concrete worker count.

    ``None`` consults ``REPRO_JOBS`` (defaulting to 1), ``-1`` means one
    worker per available core, and any positive integer is taken as-is.
    Anything else raises :class:`repro.errors.ConfigError`.
    """
    if n_jobs is None:
        raw = os.environ.get(JOBS_ENV, "").strip()
        if not raw:
            return 1
        try:
            n_jobs = int(raw)
        except ValueError:
            raise ConfigError(
                f"{JOBS_ENV} must be an integer, got {raw!r}"
            ) from None
    if n_jobs == -1:
        return max(os.cpu_count() or 1, 1)
    if not isinstance(n_jobs, int) or n_jobs < 1:
        raise ConfigError(
            f"n_jobs must be a positive integer or -1, got {n_jobs!r}"
        )
    return n_jobs


def resolve_executor(kind: Optional[str] = None, n_jobs: int = 1) -> str:
    """Pick the backend: explicit ``kind`` > ``REPRO_EXECUTOR`` > default.

    The default is ``serial`` for one worker and ``processes`` otherwise
    (tree fitting is CPU-bound Python, so threads only help when the
    work releases the GIL).
    """
    chosen = kind or os.environ.get(EXECUTOR_ENV, "").strip() or None
    if chosen is None:
        return "serial" if n_jobs <= 1 else "processes"
    if chosen not in EXECUTOR_KINDS:
        raise ConfigError(
            f"executor must be one of {EXECUTOR_KINDS}, got {chosen!r}"
        )
    return chosen


def _picklable(*objects) -> bool:
    try:
        for obj in objects:
            pickle.dumps(obj)
    except Exception:
        return False
    return True


def parallel_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    n_jobs: Optional[int] = None,
    executor: Optional[str] = None,
) -> List[R]:
    """Map ``fn`` over ``items``, preserving order.

    Args:
        fn: The task.  It must be deterministic given its argument; any
            randomness must come in through the argument (see
            :func:`repro.parallel.seeding.spawn_seeds`), which is what
            makes serial and parallel runs bit-identical.
        items: Task inputs.
        n_jobs: Worker count (see :func:`resolve_jobs`).
        executor: Backend override (see :func:`resolve_executor`).

    Process pools require ``fn`` and every item to be picklable; when
    they are not, the call degrades to a thread pool with a warning
    rather than failing mid-flight.  Retries, timeouts and failure
    policies live one layer up, in ``resilient_map``, which wraps this.
    """
    jobs = resolve_jobs(n_jobs)
    items = list(items)
    kind = resolve_executor(executor, jobs)
    if kind != "serial":
        jobs = min(jobs, len(items)) or 1
    if kind == "serial" or jobs <= 1 or len(items) <= 1:
        return [fn(item) for item in items]
    if kind == "processes" and not _picklable(fn, *items):
        warnings.warn(
            "parallel_map: task is not picklable; falling back to threads",
            RuntimeWarning,
            stacklevel=2,
        )
        kind = "threads"
    if kind == "processes":
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(fn, items))
    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(fn, items))
