"""Tests for the paired significance machinery."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro
from repro.baselines import LinearRegressionBaseline, NaiveFixedPenaltyModel
from repro.core.tree import M5Prime
from repro.datasets.synthetic import figure1_dataset
from repro.errors import ConfigError, DataError
from repro.evaluation import (
    compare_estimators,
    cross_validate,
    naive_paired_ttest,
    paired_fold_test,
)


@pytest.fixture(scope="module")
def cv_pair():
    ds = figure1_dataset(n=400, noise_sd=0.1, rng=0)
    tree = cross_validate(lambda: M5Prime(min_instances=25), ds, n_folds=8, rng=3)
    ols = cross_validate(LinearRegressionBaseline, ds, n_folds=8, rng=3)
    return tree, ols


class TestPairedFoldTest:
    def test_clear_difference_is_significant(self, cv_pair):
        tree, ols = cv_pair
        # The model tree is far better than one line on piecewise data.
        result = paired_fold_test(ols, tree, metric="mae")
        assert result.mean_difference > 0
        assert result.significant()
        assert result.corrected

    def test_self_comparison_not_significant(self, cv_pair):
        tree, _ = cv_pair
        result = paired_fold_test(tree, tree, metric="mae")
        assert result.mean_difference == pytest.approx(0.0)
        assert result.p_value == pytest.approx(1.0)
        assert not result.significant()

    def test_symmetry(self, cv_pair):
        tree, ols = cv_pair
        forward = paired_fold_test(ols, tree, metric="mae")
        backward = paired_fold_test(tree, ols, metric="mae")
        assert forward.mean_difference == pytest.approx(-backward.mean_difference)
        assert forward.p_value == pytest.approx(backward.p_value)

    def test_correction_is_more_conservative(self, cv_pair):
        tree, ols = cv_pair
        corrected = paired_fold_test(ols, tree, metric="mae")
        naive = naive_paired_ttest(ols, tree, metric="mae")
        assert abs(corrected.t_statistic) <= abs(naive.t_statistic) + 1e-12
        assert corrected.p_value >= naive.p_value - 1e-12

    def test_correlation_metric(self, cv_pair):
        tree, ols = cv_pair
        result = paired_fold_test(tree, ols, metric="correlation")
        assert result.mean_difference > 0  # tree correlates better

    def test_unknown_metric(self, cv_pair):
        tree, ols = cv_pair
        with pytest.raises(ConfigError):
            paired_fold_test(tree, ols, metric="accuracy")

    def test_fold_count_mismatch(self, cv_pair):
        tree, _ = cv_pair
        ds = figure1_dataset(n=200, rng=1)
        other = cross_validate(LinearRegressionBaseline, ds, n_folds=4, rng=0)
        with pytest.raises(DataError):
            paired_fold_test(tree, other)

    def test_describe(self, cv_pair):
        tree, ols = cv_pair
        text = paired_fold_test(ols, tree).describe()
        assert "paired t" in text
        assert "p = " in text


class TestComparisonSignificance:
    def test_against_reference(self, suite_dataset):
        comparison = compare_estimators(
            {
                "tree": lambda: M5Prime(min_instances=12),
                "naive": NaiveFixedPenaltyModel,
            },
            suite_dataset,
            n_folds=6,
            seed=0,
        )
        tests = comparison.significance_against("tree")
        assert set(tests) == {"naive"}
        assert tests["naive"].mean_difference > 0  # naive is worse

    def test_unknown_reference(self, suite_dataset):
        comparison = compare_estimators(
            {"tree": lambda: M5Prime(min_instances=12)},
            suite_dataset,
            n_folds=4,
            seed=0,
        )
        with pytest.raises(ConfigError):
            comparison.significance_against("xgboost")


def test_importing_the_package_loads_no_scipy():
    """scipy.stats is imported by the tests that use it, not at import.

    A fresh interpreter imports the package, the CLI and the server, the
    entry points every batch run and ``repro serve`` start from.
    """
    env = dict(os.environ)
    src = str(Path(repro.__file__).resolve().parent.parent)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    script = (
        "import sys; import repro, repro.cli, repro.serve.server; "
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"
    )
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True,
        check=True, timeout=120,
    )
    assert out.stdout.strip() == "[]"
