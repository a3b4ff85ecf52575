"""Retries, per-task timeouts, and pluggable failure policies.

The execution layer's unit of work is one element of a map — a fold, a
workload simulation, an ensemble member.  This module wraps each unit
so that a transient failure (an injected fault, a flaky measurement, a
timeout) is retried with exponential backoff, and a unit that keeps
failing is either re-raised, recorded, or tolerated up to a success
floor, depending on the failure policy:

* ``fail_fast`` (default) — the first exhausted unit aborts the run, as
  an unwrapped loop would;
* ``collect_errors`` — failed units come back as structured
  :class:`TaskFailure` records in their map slots; the caller decides
  what a partial result is worth;
* ``min_success_fraction`` — like ``collect_errors`` but the run aborts
  unless at least the given fraction of units succeeded.

Backoff jitter is *seeded*: the delay before retry ``n`` of unit ``k``
is a pure function of ``(policy.seed, k, n)``, so two identical runs
sleep identically.  Nothing here touches task *results* — a run that
completes is bit-identical to one that never saw a failure.
"""

from __future__ import annotations

import hashlib
import threading
import time
from dataclasses import dataclass
from typing import Any, Callable, List, Optional, Sequence, TypeVar, Union

from repro.errors import ConfigError, RetryExhaustedError, TaskTimeoutError
from repro.resilience.faults import active_plan

T = TypeVar("T")
R = TypeVar("R")

#: Failure-policy kinds, in the order the CLI documents them.
FAIL_FAST = "fail_fast"
COLLECT_ERRORS = "collect_errors"
MIN_SUCCESS = "min_success_fraction"
POLICY_KINDS = (FAIL_FAST, COLLECT_ERRORS, MIN_SUCCESS)

#: Patchable sleep hook so tests can observe backoff without waiting.
_sleep = time.sleep


@dataclass(frozen=True)
class RetryPolicy:
    """How often and how patiently a failing unit is retried.

    Attributes:
        max_attempts: Total tries per unit (1 disables retrying).
        base_delay: Seconds before the first retry; each further retry
            doubles it.
        max_delay: Ceiling on the undithered delay.
        jitter: Fractional dither added on top of the exponential delay
            (0.1 means up to +10%), drawn deterministically from
            ``seed`` and the unit key so identical runs sleep
            identically.
        seed: Root of the jitter derivation.
    """

    max_attempts: int = 3
    base_delay: float = 0.05
    max_delay: float = 2.0
    jitter: float = 0.1
    seed: int = 0

    def __post_init__(self) -> None:
        if self.max_attempts < 1:
            raise ConfigError(
                f"max_attempts must be at least 1, got {self.max_attempts}"
            )
        if self.base_delay < 0 or self.max_delay < 0:
            raise ConfigError("retry delays must be non-negative")
        if not 0.0 <= self.jitter <= 1.0:
            raise ConfigError(
                f"jitter must lie in [0, 1], got {self.jitter!r}"
            )

    def delay_for(self, attempt: int, key: str) -> float:
        """Seconds to sleep before retry ``attempt`` (1-based) of ``key``."""
        raw = min(self.base_delay * (2 ** (attempt - 1)), self.max_delay)
        text = f"{self.seed}|{key}|{attempt}"
        digest = hashlib.sha256(text.encode()).hexdigest()
        unit = int(digest[:16], 16) / float(1 << 64)
        return raw * (1.0 + self.jitter * unit)


@dataclass(frozen=True)
class TaskFailure:
    """One unit's terminal failure, recorded instead of raised.

    Occupies the failed unit's slot in the map result under the
    ``collect_errors`` and ``min_success_fraction`` policies.  Carries
    only strings (not the exception object) so it crosses process
    boundaries and serializes into the JSON report envelope unchanged.
    """

    key: str
    index: int
    error_type: str
    message: str
    attempts: int

    def to_dict(self) -> dict:
        return {
            "unit": self.key,
            "index": self.index,
            "error": self.error_type,
            "message": self.message,
            "attempts": self.attempts,
        }

    def render(self) -> str:
        return (
            f"{self.key}: failed after {self.attempts} attempt(s): "
            f"{self.error_type}: {self.message}"
        )


@dataclass(frozen=True)
class FailPolicy:
    """What a finished map does about units that exhausted their retries."""

    kind: str = FAIL_FAST
    min_fraction: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in POLICY_KINDS:
            raise ConfigError(
                f"failure policy must be one of {POLICY_KINDS}, got "
                f"{self.kind!r}"
            )
        if not 0.0 <= self.min_fraction <= 1.0:
            raise ConfigError(
                f"min_fraction must lie in [0, 1], got {self.min_fraction!r}"
            )

    @staticmethod
    def parse(spec: str) -> "FailPolicy":
        """Parse a CLI spec: ``fail_fast`` | ``collect_errors`` |
        ``min_success:FRACTION`` (``min_success_fraction:`` also accepted).
        """
        text = spec.strip()
        if text in (FAIL_FAST, COLLECT_ERRORS):
            return FailPolicy(kind=text)
        name, sep, fraction_text = text.partition(":")
        if name in ("min_success", MIN_SUCCESS):
            if not sep:
                return FailPolicy(kind=MIN_SUCCESS, min_fraction=0.5)
            try:
                fraction = float(fraction_text)
            except ValueError:
                raise ConfigError(
                    f"min_success fraction must be a number, got "
                    f"{fraction_text!r}"
                ) from None
            return FailPolicy(kind=MIN_SUCCESS, min_fraction=fraction)
        raise ConfigError(
            f"unknown failure policy {spec!r}; expected fail_fast, "
            "collect_errors, or min_success:FRACTION"
        )

    @property
    def captures(self) -> bool:
        """Whether exhausted units are recorded rather than raised."""
        return self.kind != FAIL_FAST

    def apply(self, outcomes: Sequence[Any]) -> List[Any]:
        """Enforce the policy over a finished map's outcomes.

        Returns the outcomes (failures in place) or raises
        :class:`RetryExhaustedError` when the policy cannot accept them.
        """
        failures = [o for o in outcomes if isinstance(o, TaskFailure)]
        if not failures:
            return list(outcomes)
        if self.kind == FAIL_FAST:
            raise RetryExhaustedError(failures[0].render())
        if self.kind == MIN_SUCCESS and outcomes:
            fraction = 1.0 - len(failures) / len(outcomes)
            if fraction < self.min_fraction:
                names = ", ".join(f.key for f in failures[:8])
                extra = len(failures) - 8
                if extra > 0:
                    names += f" (+{extra} more)"
                raise RetryExhaustedError(
                    f"only {100 * fraction:.0f}% of {len(outcomes)} units "
                    f"succeeded (policy requires "
                    f"{100 * self.min_fraction:.0f}%); failed: {names}"
                )
        return list(outcomes)


def run_with_timeout(
    fn: Callable[[T], R], item: T, timeout: Optional[float], key: str
) -> R:
    """Run ``fn(item)``, raising :class:`TaskTimeoutError` past ``timeout``.

    The task runs on a daemon thread so the caller can give up on it;
    an abandoned task keeps running until it finishes on its own (there
    is no portable way to kill it), which is acceptable for the pure
    compute tasks this package maps.  ``timeout=None`` calls directly.
    """
    if timeout is None:
        return fn(item)
    if timeout <= 0:
        raise ConfigError(f"task timeout must be positive, got {timeout!r}")
    outcome: dict = {}
    done = threading.Event()

    def target() -> None:
        try:
            outcome["value"] = fn(item)
        except BaseException as error:  # noqa: BLE001 - relayed to caller
            outcome["error"] = error
        finally:
            done.set()

    worker = threading.Thread(target=target, daemon=True)
    worker.start()
    if not done.wait(timeout):
        raise TaskTimeoutError(
            f"task {key!r} exceeded its {timeout:g}s timeout"
        )
    if "error" in outcome:
        raise outcome["error"]
    return outcome["value"]


class ResilientTask:
    """Picklable per-unit wrapper: timeout, retries, terminal handling.

    Called with ``(key, index, item)``; returns ``fn(item)`` or — when
    the policy captures — a :class:`TaskFailure` after the retry budget
    is spent.  Lives at module level so process pools can pickle it.
    """

    def __init__(
        self,
        fn: Callable[[T], R],
        retry: RetryPolicy,
        timeout: Optional[float],
        capture: bool,
    ) -> None:
        self.fn = fn
        self.retry = retry
        self.timeout = timeout
        self.capture = capture

    def __call__(self, job: tuple) -> Union[R, TaskFailure]:
        key, index, item = job
        last_error: Optional[BaseException] = None
        for attempt in range(1, self.retry.max_attempts + 1):
            try:
                return run_with_timeout(self.fn, item, self.timeout, key)
            except (KeyboardInterrupt, SystemExit):
                raise
            except Exception as error:
                last_error = error
                if attempt < self.retry.max_attempts:
                    _sleep(self.retry.delay_for(attempt, key))
        assert last_error is not None
        if self.capture:
            return TaskFailure(
                key=key,
                index=index,
                error_type=type(last_error).__name__,
                message=str(last_error),
                attempts=self.retry.max_attempts,
            )
        raise RetryExhaustedError(
            f"{key} failed after {self.retry.max_attempts} attempt(s): "
            f"{type(last_error).__name__}: {last_error}"
        ) from last_error


def resilient_map(
    fn: Callable[[T], R],
    items: Sequence[T],
    n_jobs: Optional[int] = None,
    executor: Optional[str] = None,
    retry: Optional[RetryPolicy] = None,
    fail_policy: Optional[FailPolicy] = None,
    task_timeout: Optional[float] = None,
    keys: Optional[Sequence[str]] = None,
) -> List[Union[R, TaskFailure]]:
    """:func:`repro.parallel.parallel_map` with failure handling.

    Every unit is retried per ``retry`` (default
    :class:`RetryPolicy()`), bounded by ``task_timeout`` seconds, and
    judged by ``fail_policy`` once the map finishes.  Results keep
    input order; under capturing policies a failed unit's slot holds
    its :class:`TaskFailure`.

    ``keys`` names the units for failure records, jitter derivation and
    fault-injection identity; it defaults to ``task-<index>``.

    A malformed ``REPRO_FAULTS`` spec raises its ``ConfigError`` here,
    once, rather than inside every unit as a retried failure.
    """
    from repro.parallel.executor import parallel_map

    active_plan()
    items = list(items)
    policy = fail_policy if fail_policy is not None else FailPolicy()
    retry_policy = retry if retry is not None else RetryPolicy()
    if keys is None:
        keys = [f"task-{index}" for index in range(len(items))]
    elif len(keys) != len(items):
        raise ConfigError(
            f"got {len(keys)} keys for {len(items)} items"
        )
    task = ResilientTask(fn, retry_policy, task_timeout, policy.captures)
    jobs = [
        (key, index, item)
        for index, (key, item) in enumerate(zip(keys, items))
    ]
    outcomes = parallel_map(task, jobs, n_jobs=n_jobs, executor=executor)
    return policy.apply(outcomes)
