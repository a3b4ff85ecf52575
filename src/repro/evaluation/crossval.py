"""K-fold cross validation (the paper's 10-fold protocol, [24]).

Every fold trains a fresh estimator on the other folds and predicts the
held-out one, so each instance is predicted by a model that never saw it
— the property the paper highlights for its Figure 3 scatter.

Folds are independent once the split assignment is fixed, so they can
run in parallel (``n_jobs``).  All randomness is resolved *before* any
fold runs: the fold assignment comes from the caller's ``rng`` and each
fold gets its own pre-spawned seed, which is why ``n_jobs=4`` returns
bit-identical predictions to a serial run.

The same pre-resolution makes folds *restartable*: with a
:class:`~repro.resilience.RunPolicy`, folds run as units of
:func:`~repro.resilience.run_units`, so every completed fold is stored
as an artifact-cache checkpoint as it finishes and a resumed run
recomputes only the missing ones — bit-identical to an uninterrupted
run.  Failing folds are retried with backoff and, under a capturing
failure policy, recorded as :class:`~repro.resilience.TaskFailure`
entries in ``result.failures`` instead of aborting the run.
"""

from __future__ import annotations

import inspect
from dataclasses import dataclass, field
from typing import Callable, List, Optional

import numpy as np

from repro._util import RandomState, check_random_state
from repro.datasets.dataset import Dataset
from repro.datasets.splits import kfold_splits
from repro.errors import ConfigError, RetryExhaustedError
from repro.evaluation.metrics import (
    EvaluationResult,
    evaluate_predictions,
    mean_result,
)
from repro.parallel import derive_fold_seeds, parallel_map
from repro.resilience import RunPolicy, TaskFailure, run_units
from repro.resilience.faults import maybe_inject

EstimatorFactory = Callable[..., object]


@dataclass
class CrossValidationResult:
    """Outcome of one cross-validation run.

    Attributes:
        folds: Per-fold metrics (completed folds only).
        mean: Metrics averaged over completed folds (the paper's
            headline numbers).
        pooled: Metrics computed once over all out-of-fold predictions.
        predictions: Out-of-fold prediction per dataset row, aligned with
            the input dataset (Figure 3's y-axis).  Rows belonging to a
            failed fold hold NaN.
        actuals: The corresponding measured targets (Figure 3's x-axis).
        failures: Folds that exhausted their retries under a capturing
            failure policy (empty on a clean or policy-free run).
    """

    folds: List[EvaluationResult]
    mean: EvaluationResult
    pooled: EvaluationResult
    predictions: np.ndarray
    actuals: np.ndarray
    failures: List[TaskFailure] = field(default_factory=list)

    @property
    def n_folds(self) -> int:
        return len(self.folds)

    def describe(self) -> str:
        lines = [f"{self.n_folds}-fold cross validation"]
        lines.append(f"  mean over folds: {self.mean.describe()}")
        lines.append(f"  pooled:          {self.pooled.describe()}")
        for failure in self.failures:
            lines.append(f"  FAILED {failure.render()}")
        return "\n".join(lines)


def _wants_rng(factory: EstimatorFactory) -> bool:
    """Whether ``factory`` declares a required parameter for a fold RNG."""
    try:
        parameters = inspect.signature(factory).parameters
    except (TypeError, ValueError):
        return False
    for parameter in parameters.values():
        if parameter.kind in (
            inspect.Parameter.POSITIONAL_ONLY,
            inspect.Parameter.POSITIONAL_OR_KEYWORD,
        ) and parameter.default is inspect.Parameter.empty:
            return True
    return False


class _FoldTask:
    """One fold's fit-and-predict, self-contained and picklable.

    Holding the full dataset (instead of materialized subsets) keeps the
    pickled payload small-ish and lets the task slice locally.
    """

    def __init__(
        self,
        factory: EstimatorFactory,
        dataset: Dataset,
        pass_rng: bool,
    ) -> None:
        self.factory = factory
        self.dataset = dataset
        self.pass_rng = pass_rng

    def __call__(self, job) -> np.ndarray:
        fold_index, train_idx, test_idx, fold_seed = job
        maybe_inject("fold", f"fold-{fold_index:03d}")
        if self.pass_rng:
            estimator = self.factory(np.random.default_rng(fold_seed))
        else:
            estimator = self.factory()
        estimator.fit(self.dataset.subset(train_idx))  # type: ignore[attr-defined]
        return np.asarray(
            estimator.predict(self.dataset.X[test_idx])  # type: ignore[attr-defined]
        )


def cross_validate(
    factory: EstimatorFactory,
    dataset: Dataset,
    n_folds: int = 10,
    rng: RandomState = None,
    n_jobs: Optional[int] = None,
    policy: Optional[RunPolicy] = None,
) -> CrossValidationResult:
    """Run k-fold CV of ``factory()`` estimators over ``dataset``.

    The factory must return a fresh unfitted estimator supporting
    ``fit(Dataset)`` and ``predict(X)`` (all learners in this package
    do).  A factory with one required positional parameter is instead
    called with a per-fold :class:`numpy.random.Generator`, pre-spawned
    from ``rng`` in fold order, so stochastic learners stay reproducible
    at any ``n_jobs``.

    Args:
        n_jobs: Fold-level parallelism — ``1`` serial (default), ``N``
            workers, ``-1`` all cores, ``None`` defers to ``REPRO_JOBS``.
            Serial and parallel runs return bit-identical results.
        policy: Optional :class:`~repro.resilience.RunPolicy`.  Adds
            per-fold retries/timeouts, failure-policy handling, and —
            with a checkpoint cache — durable per-fold results that a
            ``resume`` run reuses.  ``None`` keeps the historical
            fail-on-first-error behavior exactly.
    """
    if n_folds > dataset.n_instances:
        raise ConfigError(
            f"cannot run {n_folds}-fold cross validation on "
            f"{dataset.n_instances} instances; every fold needs at least "
            f"one instance — reduce n_folds or supply more data"
        )
    generator = check_random_state(rng)
    splits = kfold_splits(dataset.n_instances, n_folds, generator)
    fold_seeds = derive_fold_seeds(generator if rng is not None else None, n_folds)
    task = _FoldTask(factory, dataset, pass_rng=_wants_rng(factory))
    jobs = [
        (index, train_idx, test_idx, seed)
        for index, ((train_idx, test_idx), seed) in enumerate(
            zip(splits, fold_seeds)
        )
    ]

    if policy is None:
        fold_predictions: List[Optional[np.ndarray]] = list(
            parallel_map(task, jobs, n_jobs=n_jobs)
        )
        failures: List[TaskFailure] = []
    else:
        fold_predictions, failures = run_units(
            task,
            jobs,
            [f"fold-{index:03d}" for index in range(n_folds)],
            n_jobs,
            policy,
        )

    predictions = np.full(dataset.n_instances, np.nan)
    fold_results: List[EvaluationResult] = []
    for (train_idx, test_idx), fold_pred in zip(splits, fold_predictions):
        if fold_pred is None:
            continue
        fold_pred = np.asarray(fold_pred, dtype=np.float64)
        predictions[test_idx] = fold_pred
        fold_results.append(evaluate_predictions(dataset.y[test_idx], fold_pred))
    if not fold_results:
        raise RetryExhaustedError(
            f"all {n_folds} cross-validation folds failed; "
            "no metrics can be computed"
        )
    covered = np.isfinite(predictions)
    return CrossValidationResult(
        folds=fold_results,
        mean=mean_result(fold_results),
        pooled=evaluate_predictions(
            dataset.y[covered], predictions[covered]
        ),
        predictions=predictions,
        actuals=dataset.y.copy(),
        failures=failures,
    )
