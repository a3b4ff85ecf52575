"""Request coalescing: many small requests, one compiled evaluation.

The compiled predictor's fixed cost (routing setup, per-leaf grouping)
amortizes over rows, so a server handling many concurrent single-section
requests wants to score them together.  :class:`BatchQueue` runs one
consumer thread that takes the first request together with whatever is
already queued behind it — up to ``max_batch`` rows — evaluates once,
and scatters results back to the waiting handler threads.  Batches form
from contention: requests that arrive while the evaluator is busy queue
up and leave together in the next batch.  Nothing is held open waiting
for stragglers, so a lone request never pays for a batch that does not
come.

Deadlines follow the :class:`~repro.resilience.RunPolicy` timeout
semantics: a request carries a wall-clock budget, a request still queued
when its budget expires fails with
:class:`~repro.errors.TaskTimeoutError` (the HTTP layer maps it to 503),
and an expired request never consumes evaluator time.
"""

from __future__ import annotations

import queue
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro.errors import ConfigError, ServeError, TaskTimeoutError

__all__ = ["BatchQueue"]


@dataclass
class _Pending:
    """One enqueued request and its rendezvous state."""

    rows: np.ndarray
    deadline: Optional[float]
    done: threading.Event = field(default_factory=threading.Event)
    result: Optional[np.ndarray] = None
    error: Optional[BaseException] = None

    def expired(self, now: float) -> bool:
        return self.deadline is not None and now > self.deadline


class BatchQueue:
    """Coalesce concurrent predict calls into batched evaluations.

    Args:
        evaluate: Batch evaluator, ``(n, d) array -> (n,) array``.
        max_batch: Row budget per evaluation.
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
        self._queue: "queue.Queue[_Pending]" = queue.Queue()
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    # ------------------------------------------------------------------
    def start(self) -> "BatchQueue":
        if self._thread is not None:
            raise ServeError("batch queue already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-batcher", daemon=True
        )
        self._thread.start()
        return self

    def stop(self, drain_timeout: float = 2.0) -> None:
        """Stop the consumer; queued requests fail fast with ServeError."""
        self._stop.set()
        thread = self._thread
        if thread is not None:
            thread.join(timeout=drain_timeout)
            self._thread = None
        while True:
            try:
                pending = self._queue.get_nowait()
            except queue.Empty:
                break
            pending.error = ServeError("server shutting down")
            pending.done.set()

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
        if self._thread is None:
            raise ServeError("batch queue is not running")
        deadline = None if timeout is None else time.monotonic() + timeout
        pending = _Pending(rows=rows, deadline=deadline)
        self._queue.put(pending)
        wait = None if timeout is None else timeout + 0.05
        if not pending.done.wait(timeout=wait):
            raise TaskTimeoutError(
                f"predict request exceeded its {timeout:.3g}s budget"
            )
        if pending.error is not None:
            raise pending.error
        assert pending.result is not None
        return pending.result

    # ------------------------------------------------------------------
    def _collect(self) -> List[_Pending]:
        """Block for the first request, then take what is already queued."""
        try:
            first = self._queue.get(timeout=0.05)
        except queue.Empty:
            return []
        batch = [first]
        n_rows = first.rows.shape[0]
        while n_rows < self.max_batch:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                break
            batch.append(item)
            n_rows += item.rows.shape[0]
        return batch

    def _run(self) -> None:
        while not self._stop.is_set():
            batch = self._collect()
            if not batch:
                continue
            now = time.monotonic()
            live: List[_Pending] = []
            for pending in batch:
                if pending.expired(now):
                    pending.error = TaskTimeoutError(
                        "predict request expired while queued"
                    )
                    pending.done.set()
                else:
                    live.append(pending)
            if not live:
                continue
            stacked = (
                live[0].rows if len(live) == 1
                else np.vstack([p.rows for p in live])
            )
            if self.observe_batch is not None:
                self.observe_batch(int(stacked.shape[0]))
            try:
                results = self.evaluate(stacked)
            except BaseException as exc:  # noqa: BLE001 — routed to callers
                for pending in live:
                    pending.error = exc
                    pending.done.set()
                continue
            offset = 0
            for pending in live:
                n = pending.rows.shape[0]
                pending.result = np.asarray(results)[offset:offset + n]
                offset += n
                pending.done.set()
