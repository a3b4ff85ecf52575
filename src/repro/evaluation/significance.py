"""Paired significance testing for cross-validated comparisons.

WEKA-era methodology compares learners with a paired t-test over fold
errors.  The naive paired test is optimistic because CV folds share
training data; Nadeau & Bengio's *corrected resampled t-test* inflates
the variance by ``1/k + n_test/n_train`` to compensate, and is the
standard used by WEKA's experimenter.  We implement both and use the
corrected one by default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.errors import ConfigError, DataError
from repro.evaluation.crossval import CrossValidationResult


@dataclass(frozen=True)
class PairedComparison:
    """Outcome of a paired test between two learners' fold errors.

    Attributes:
        metric: Which fold metric was compared (e.g. ``"mae"``).
        mean_difference: mean(A − B); negative means A is better for
            error metrics.
        t_statistic / p_value: Two-sided test of mean difference = 0.
        corrected: Whether the Nadeau–Bengio variance correction applied.
        n_folds: Number of paired observations.
    """

    metric: str
    mean_difference: float
    t_statistic: float
    p_value: float
    corrected: bool
    n_folds: int

    def significant(self, alpha: float = 0.05) -> bool:
        return self.p_value < alpha

    def describe(self) -> str:
        marker = "significant" if self.significant() else "not significant"
        kind = "corrected " if self.corrected else ""
        return (
            f"mean d({self.metric}) = {self.mean_difference:+.4f}, "
            f"{kind}paired t = {self.t_statistic:.3f}, p = {self.p_value:.4f} "
            f"({marker} at 0.05, k = {self.n_folds})"
        )


def paired_fold_test(
    a: CrossValidationResult,
    b: CrossValidationResult,
    metric: str = "mae",
    test_fraction: float | None = None,
) -> PairedComparison:
    """Corrected resampled paired t-test between two CV results.

    Both results must come from the same folds (use
    :func:`repro.evaluation.compare_estimators`, which guarantees it, or
    pass the same ``rng`` to both :func:`cross_validate` calls).

    Args:
        metric: Fold metric to compare (``mae``, ``rae``, ``rmse``,
            ``rrse``, or ``correlation``).
        test_fraction: ``n_test / n_train`` for the correction; defaults
            to ``1 / (k - 1)``, exact for k-fold CV.
    """
    if metric not in ("mae", "rae", "rmse", "rrse", "correlation"):
        raise ConfigError(f"unknown metric {metric!r}")
    if a.n_folds != b.n_folds:
        raise DataError("results have different fold counts")
    k = a.n_folds
    if k < 2:
        raise DataError("need at least two folds")
    values_a = np.array([getattr(fold, metric) for fold in a.folds])
    values_b = np.array([getattr(fold, metric) for fold in b.folds])
    differences = values_a - values_b

    mean = float(differences.mean())
    variance = float(differences.var(ddof=1))
    if variance <= 0:
        # Identical per-fold results: no evidence of a difference.
        return PairedComparison(metric, mean, 0.0, 1.0, True, k)

    if test_fraction is None:
        test_fraction = 1.0 / (k - 1)
    corrected_variance = variance * (1.0 / k + test_fraction)
    t_statistic = mean / np.sqrt(corrected_variance)
    # Imported here: scipy.stats costs ~1 s at import, and every process
    # that imports the package would otherwise pay it.
    from scipy import stats

    p_value = float(2.0 * stats.t.sf(abs(t_statistic), df=k - 1))
    return PairedComparison(
        metric=metric,
        mean_difference=mean,
        t_statistic=float(t_statistic),
        p_value=p_value,
        corrected=True,
        n_folds=k,
    )


def naive_paired_ttest(
    a: CrossValidationResult, b: CrossValidationResult, metric: str = "mae"
) -> PairedComparison:
    """The classical (uncorrected, optimistic) paired t-test — for reference."""
    if metric not in ("mae", "rae", "rmse", "rrse", "correlation"):
        raise ConfigError(f"unknown metric {metric!r}")
    if a.n_folds != b.n_folds:
        raise DataError("results have different fold counts")
    values_a = np.array([getattr(fold, metric) for fold in a.folds])
    values_b = np.array([getattr(fold, metric) for fold in b.folds])
    from scipy import stats

    statistic, p_value = stats.ttest_rel(values_a, values_b)
    if np.isnan(statistic):
        statistic, p_value = 0.0, 1.0
    return PairedComparison(
        metric=metric,
        mean_difference=float((values_a - values_b).mean()),
        t_statistic=float(statistic),
        p_value=float(p_value),
        corrected=False,
        n_folds=a.n_folds,
    )
