"""Request coalescing: many small requests, one compiled evaluation.

The compiled predictor's fixed cost (routing setup, per-leaf grouping)
amortizes over rows, so a server handling many concurrent single-section
requests wants to score them together.  :class:`BatchQueue` has no
thread of its own; it is leader/follower.  A :meth:`~BatchQueue.submit`
that finds no evaluation running leads: on its own thread it takes its
request together with whatever is queued behind it — up to
``max_batch`` rows — evaluates once, and scatters results back to the
waiting handler threads.  When that batch finishes, the thread of the
oldest request still queued leads the next one.  Batches form from
contention: requests that arrive while an evaluation runs queue up and
leave together in the next batch.  Nothing is held open waiting for
stragglers, and a lone request is scored on the thread that received
it, without a hand-off.

Deadlines follow the :class:`~repro.resilience.RunPolicy` timeout
semantics: a request carries a wall-clock budget, a request still queued
when its budget expires fails with
:class:`~repro.errors.TaskTimeoutError` (the HTTP layer maps it to 503),
and an expired request never consumes evaluator time.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Deque, List, Optional

import numpy as np

from repro.errors import ConfigError, ServeError, TaskTimeoutError

__all__ = ["BatchQueue"]

#: How long past its budget a caller still waits for a result that is
#: being computed before giving up with a timeout.
_GRACE_S = 0.05


@dataclass(eq=False)
class _Pending:
    """One submitted request and its rendezvous state.

    ``wake`` is set when the request is done (``result`` or ``error``)
    or when it is promoted to lead the next batch (``lead``).  ``queued``
    and ``lead`` change only under the queue's lock.
    """

    rows: np.ndarray
    deadline: Optional[float]
    wake: threading.Event = field(default_factory=threading.Event)
    queued: bool = True
    lead: bool = False
    result: Optional[np.ndarray] = None
    error: Optional[BaseException] = None

    def expired(self, now: float, grace: float = 0.0) -> bool:
        return self.deadline is not None and now > self.deadline + grace


class BatchQueue:
    """Coalesce concurrent predict calls into batched evaluations.

    At most one evaluation runs at a time, on the thread of one of the
    requests it scores.

    Args:
        evaluate: Batch evaluator, ``(n, d) array -> (n, ...) array``;
            each caller receives its own rows of the result.
        max_batch: Row budget per evaluation; a single request larger
            than the budget is evaluated alone.
        observe_batch: Optional callback receiving each evaluated batch's
            row count (feeds the batch-size histogram).
    """

    def __init__(
        self,
        evaluate: Callable[[np.ndarray], np.ndarray],
        max_batch: int = 256,
        observe_batch: Optional[Callable[[int], None]] = None,
    ) -> None:
        if max_batch < 1:
            raise ConfigError(f"max_batch must be >= 1, got {max_batch}")
        self.evaluate = evaluate
        self.max_batch = int(max_batch)
        self.observe_batch = observe_batch
        self._lock = threading.Lock()
        self._waiting: Deque[_Pending] = deque()
        # True from a batch's start until the lead finds the queue empty,
        # across hand-offs; while it is false the queue is empty.
        self._leading = False
        self._running = False

    # ------------------------------------------------------------------
    def start(self) -> "BatchQueue":
        with self._lock:
            if self._running:
                raise ServeError("batch queue already started")
            self._running = True
        return self

    def stop(self) -> None:
        """Refuse new requests; queued ones fail fast with ServeError.

        A batch already evaluating finishes on its leader's thread.
        """
        with self._lock:
            self._running = False
            while self._waiting:
                pending = self._waiting.popleft()
                pending.queued = False
                pending.error = ServeError("server shutting down")
                pending.wake.set()

    # ------------------------------------------------------------------
    def submit(
        self, rows: np.ndarray, timeout: Optional[float] = None
    ) -> np.ndarray:
        """Score ``rows`` (2-D) through the next batch; blocks until done.

        Raises:
            TaskTimeoutError: The per-request budget elapsed before the
                result was ready (whether queued or mid-evaluation).
            ServeError: The queue is stopped.
        """
        rows = np.atleast_2d(np.asarray(rows, dtype=np.float64))
        deadline = None if timeout is None else time.monotonic() + timeout
        pending = _Pending(rows=rows, deadline=deadline)
        with self._lock:
            if not self._running:
                raise ServeError("batch queue is not running")
            self._waiting.append(pending)
            pending.lead = not self._leading
            self._leading = True
        if not pending.lead:
            wait = None if timeout is None else timeout + _GRACE_S
            if not pending.wake.wait(timeout=wait):
                with self._lock:
                    if pending.queued and not pending.lead:
                        # Leave the queue, so no hand-off can pick a
                        # thread that has stopped waiting.
                        self._waiting.remove(pending)
                        pending.queued = False
                    late = not (pending.lead or pending.wake.is_set())
                if late:
                    raise TaskTimeoutError(
                        f"predict request exceeded its {timeout:.3g}s budget"
                    )
        if pending.lead:
            self._lead()
            if pending.error is None and pending.expired(
                time.monotonic(), _GRACE_S
            ):
                raise TaskTimeoutError(
                    f"predict request exceeded its {timeout:.3g}s budget"
                )
        if pending.error is not None:
            raise pending.error
        assert pending.result is not None
        return pending.result

    # ------------------------------------------------------------------
    def _take_batch(self) -> List[_Pending]:
        """Dequeue the oldest live request and those behind it that fit.

        Requests whose budget has expired fail here and never reach the
        evaluator.  The first live request is taken whatever its size;
        the rest only while the batch stays within ``max_batch`` rows.
        """
        now = time.monotonic()
        batch: List[_Pending] = []
        n_rows = 0
        with self._lock:
            while self._waiting:
                head = self._waiting[0]
                expired = head.expired(now)
                if not expired and batch and (
                    n_rows + head.rows.shape[0] > self.max_batch
                ):
                    break
                self._waiting.popleft()
                head.queued = False
                if expired:
                    head.error = TaskTimeoutError(
                        "predict request expired while queued"
                    )
                    head.wake.set()
                else:
                    batch.append(head)
                    n_rows += head.rows.shape[0]
        return batch

    def _lead(self) -> None:
        """Evaluate one batch on this thread, then hand off the lead."""
        try:
            batch = self._take_batch()
            if batch:
                self._evaluate(batch)
        finally:
            with self._lock:
                if self._waiting:
                    head = self._waiting[0]
                    head.lead = True
                    head.wake.set()
                else:
                    self._leading = False

    def _evaluate(self, batch: List[_Pending]) -> None:
        try:
            stacked = (
                batch[0].rows if len(batch) == 1
                else np.vstack([p.rows for p in batch])
            )
            if self.observe_batch is not None:
                self.observe_batch(int(stacked.shape[0]))
            results = np.asarray(self.evaluate(stacked))
        except BaseException as exc:  # noqa: BLE001 — routed to callers
            for pending in batch:
                pending.error = exc
                pending.wake.set()
            return
        offset = 0
        for pending in batch:
            n = pending.rows.shape[0]
            pending.result = results[offset:offset + n]
            offset += n
            pending.wake.set()
