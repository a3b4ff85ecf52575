"""Tests for the comparison learners."""

import numpy as np
import pytest

from repro.baselines import (
    EpsilonSVR,
    KNNRegressor,
    LinearRegressionBaseline,
    MLPRegressor,
    NaiveFixedPenaltyModel,
    RegressionTree,
    default_penalty_table,
)
from repro.baselines.base import Standardizer
from repro.core.tree.splitting import find_best_split
from repro.datasets.synthetic import (
    figure1_dataset,
    interaction_dataset,
    linear_dataset,
    step_dataset,
)
from repro.errors import ConfigError, DataError, NotFittedError
from repro.evaluation import evaluate_predictions


class TestStandardizer:
    def test_zero_mean_unit_sd(self, rng):
        X = rng.normal(5.0, 3.0, size=(200, 2))
        Z = Standardizer().fit_transform(X)
        assert np.allclose(Z.mean(axis=0), 0.0, atol=1e-9)
        assert np.allclose(Z.std(axis=0), 1.0, atol=1e-9)

    def test_constant_column_safe(self):
        X = np.column_stack([np.ones(10), np.arange(10, dtype=float)])
        Z = Standardizer().fit_transform(X)
        assert np.all(np.isfinite(Z))

    def test_transform_requires_fit(self):
        with pytest.raises(NotFittedError):
            Standardizer().transform(np.ones((2, 2)))


class TestRegressorBaseContract:
    @pytest.mark.parametrize(
        "factory",
        [
            LinearRegressionBaseline,
            lambda: RegressionTree(min_instances=5),
            lambda: KNNRegressor(k=3),
            lambda: MLPRegressor(epochs=5),
            lambda: EpsilonSVR(max_sweeps=5),
            NaiveFixedPenaltyModel,
        ],
    )
    def test_predict_before_fit_raises(self, factory):
        with pytest.raises(NotFittedError):
            factory().predict(np.zeros((1, 2)))

    def test_width_mismatch_raises(self):
        ds = linear_dataset([1.0, 2.0], n=50, rng=0)
        model = LinearRegressionBaseline().fit(ds)
        with pytest.raises(DataError):
            model.predict(np.zeros((2, 3)))

    def test_empty_fit_rejected(self):
        with pytest.raises(DataError):
            LinearRegressionBaseline().fit(np.zeros((0, 2)), np.zeros(0))


class TestLinearRegression:
    def test_recovers_coefficients(self):
        ds = linear_dataset([2.0, -1.0], intercept=0.5, n=300, rng=0)
        model = LinearRegressionBaseline().fit(ds)
        assert model.intercept_ == pytest.approx(0.5, abs=1e-9)
        assert model.coefficients_ == pytest.approx([2.0, -1.0], abs=1e-9)

    def test_ridge_shrinks(self):
        ds = linear_dataset([2.0], n=100, rng=0)
        plain = LinearRegressionBaseline().fit(ds)
        ridged = LinearRegressionBaseline(ridge=100.0).fit(ds)
        assert abs(ridged.coefficients_[0]) < abs(plain.coefficients_[0])

    def test_describe(self):
        ds = linear_dataset([2.0], n=100, rng=0)
        model = LinearRegressionBaseline().fit(ds)
        assert "X1" in model.describe()

    def test_invalid_ridge(self):
        with pytest.raises(ConfigError):
            LinearRegressionBaseline(ridge=-1.0)


class TestRegressionTree:
    def test_step_function_exact(self):
        ds = step_dataset(threshold=0.5, low_value=0.0, high_value=4.0, n=400, rng=0)
        model = RegressionTree(min_instances=20).fit(ds)
        predictions = model.predict(ds.X)
        assert evaluate_predictions(ds.y, predictions).correlation > 0.99

    def test_piecewise_constant_output(self):
        ds = figure1_dataset(n=600, rng=0)
        model = RegressionTree(min_instances=30).fit(ds)
        assert len(np.unique(model.predict(ds.X))) == model.n_leaves

    def test_worse_than_m5_on_piecewise_linear(self, figure1_data, figure1_tree):
        cart = RegressionTree(min_instances=40).fit(figure1_data)
        cart_result = evaluate_predictions(
            figure1_data.y, cart.predict(figure1_data.X)
        )
        m5_result = evaluate_predictions(
            figure1_data.y, figure1_tree.predict(figure1_data.X)
        )
        assert m5_result.rae < cart_result.rae

    def test_pruning_shrinks(self):
        ds = linear_dataset([1.0], n=300, noise_sd=0.5, rng=0)
        pruned = RegressionTree(min_instances=10, prune=True).fit(ds)
        unpruned = RegressionTree(min_instances=10, prune=False).fit(ds)
        assert pruned.n_leaves <= unpruned.n_leaves

    def test_presorted_growth_matches_per_node_search(self, quick_dataset):
        """Each split of a quick-suite fit, grown on presorted orders, is
        the split a fresh per-node search picks, and each leaf that met
        the growth rule had none."""
        model = RegressionTree(min_instances=6, prune=False).fit(quick_dataset)
        X, y = quick_dataset.X, quick_dataset.y
        floor = model.sd_fraction * float(np.std(y))
        pending = [(model.root_, np.arange(len(y)))]
        n_splits = 0
        while pending:
            node, rows = pending.pop()
            grows = len(rows) >= 12 and float(np.std(y[rows])) > floor
            split = find_best_split(X[rows], y[rows], 6) if grows else None
            if node.is_leaf:
                assert split is None
                continue
            assert split is not None
            assert (split.attribute_index, split.threshold) == (
                node.attribute_index, node.threshold
            )
            go_left = X[rows, node.attribute_index] <= node.threshold
            pending += [(node.left, rows[go_left]), (node.right, rows[~go_left])]
            n_splits += 1
        assert n_splits > 50

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            RegressionTree(min_instances=0)
        with pytest.raises(ConfigError):
            RegressionTree(sd_fraction=2.0)


class TestKNN:
    def test_exact_on_training_points_k1(self):
        ds = figure1_dataset(n=200, rng=0)
        model = KNNRegressor(k=1).fit(ds)
        assert np.allclose(model.predict(ds.X), ds.y)

    def test_smooth_function_approximated(self):
        ds = interaction_dataset(n=800, rng=0)
        model = KNNRegressor(k=5).fit(ds)
        result = evaluate_predictions(ds.y, model.predict(ds.X))
        assert result.correlation > 0.97

    def test_k_larger_than_train_clamped(self):
        ds = linear_dataset([1.0], n=5, rng=0)
        model = KNNRegressor(k=50).fit(ds)
        assert model.predict(ds.X[:1])[0] == pytest.approx(float(np.mean(ds.y)))

    def test_weighted_variant(self):
        ds = interaction_dataset(n=400, rng=0)
        model = KNNRegressor(k=5, weighted=True).fit(ds)
        result = evaluate_predictions(ds.y, model.predict(ds.X))
        assert result.correlation > 0.97

    def test_invalid_k(self):
        with pytest.raises(ConfigError):
            KNNRegressor(k=0)


class TestMLP:
    def test_learns_linear_function(self):
        ds = linear_dataset([2.0, -1.0], intercept=1.0, n=400, rng=0)
        model = MLPRegressor(hidden=(16,), epochs=200, seed=0).fit(ds)
        result = evaluate_predictions(ds.y, model.predict(ds.X))
        assert result.correlation > 0.99

    def test_learns_interaction(self):
        ds = interaction_dataset(n=600, rng=0)
        model = MLPRegressor(hidden=(32, 16), epochs=300, seed=0).fit(ds)
        result = evaluate_predictions(ds.y, model.predict(ds.X))
        assert result.correlation > 0.98

    def test_deterministic_given_seed(self):
        ds = linear_dataset([1.0], n=100, rng=0)
        a = MLPRegressor(epochs=20, seed=5).fit(ds).predict(ds.X)
        b = MLPRegressor(epochs=20, seed=5).fit(ds).predict(ds.X)
        assert np.array_equal(a, b)

    def test_relu_variant(self):
        ds = linear_dataset([1.0], n=200, rng=0)
        model = MLPRegressor(activation="relu", epochs=100, seed=0).fit(ds)
        result = evaluate_predictions(ds.y, model.predict(ds.X))
        assert result.correlation > 0.95

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            MLPRegressor(hidden=())
        with pytest.raises(ConfigError):
            MLPRegressor(activation="sigmoid")
        with pytest.raises(ConfigError):
            MLPRegressor(epochs=0)
        with pytest.raises(ConfigError):
            MLPRegressor(learning_rate=0.0)


class TestSVR:
    def test_fits_linear_function(self):
        ds = linear_dataset([2.0], intercept=1.0, n=300, rng=0)
        model = EpsilonSVR(C=10.0, epsilon=0.01, seed=0).fit(ds)
        result = evaluate_predictions(ds.y, model.predict(ds.X))
        assert result.correlation > 0.99

    def test_fits_interaction(self):
        ds = interaction_dataset(n=500, rng=0)
        model = EpsilonSVR(C=10.0, epsilon=0.01, seed=0).fit(ds)
        result = evaluate_predictions(ds.y, model.predict(ds.X))
        assert result.correlation > 0.98

    def test_epsilon_tube_sparsifies(self):
        ds = linear_dataset([1.0], n=200, noise_sd=0.01, rng=0)
        tight = EpsilonSVR(epsilon=0.001, seed=0).fit(ds)
        loose = EpsilonSVR(epsilon=0.3, seed=0).fit(ds)
        assert loose.n_support_ < tight.n_support_

    def test_subsampling_cap(self):
        ds = linear_dataset([1.0], n=500, rng=0)
        model = EpsilonSVR(max_train=100, seed=0).fit(ds)
        assert model._support.shape[0] == 100

    def test_explicit_gamma(self):
        ds = linear_dataset([1.0], n=100, rng=0)
        model = EpsilonSVR(gamma=0.5, seed=0).fit(ds)
        assert model._gamma_value == 0.5

    def test_invalid_params(self):
        with pytest.raises(ConfigError):
            EpsilonSVR(C=0)
        with pytest.raises(ConfigError):
            EpsilonSVR(epsilon=-1)
        with pytest.raises(ConfigError):
            EpsilonSVR(gamma="auto")
        with pytest.raises(ConfigError):
            EpsilonSVR(gamma=-1.0)


class TestNaive:
    def test_penalty_table_covers_stall_metrics(self):
        table = default_penalty_table()
        assert table["L2M"] > 100
        assert table["BrMisPr"] > 0
        assert table["InstLd"] == 0.0

    def test_prediction_formula(self, suite_dataset):
        model = NaiveFixedPenaltyModel(base_cpi=0.3).fit(suite_dataset)
        weights = np.array(
            [default_penalty_table().get(a, 0.0) for a in suite_dataset.attributes]
        )
        expected = 0.3 + suite_dataset.X @ weights
        assert np.allclose(model.predict(suite_dataset.X), expected)

    def test_fitted_base(self, suite_dataset):
        model = NaiveFixedPenaltyModel().fit(suite_dataset)
        residual = suite_dataset.y - (
            model.predict(suite_dataset.X) - model.fitted_base_cpi
        )
        assert model.fitted_base_cpi == pytest.approx(float(residual.mean()))

    def test_overestimates_overlapped_sections(self, suite_dataset):
        """The paper's core claim: fixed penalties ignore overlap."""
        model = NaiveFixedPenaltyModel(base_cpi=0.3).fit(suite_dataset)
        predictions = model.predict(suite_dataset.X)
        mask = suite_dataset.meta["workload"] == "libq_like"
        bias = float(np.mean(predictions[mask] - suite_dataset.y[mask]))
        assert bias > 0

    def test_custom_penalties(self, suite_dataset):
        model = NaiveFixedPenaltyModel(penalties={"L2M": 100.0}, base_cpi=0.0)
        model.fit(suite_dataset)
        expected = 100.0 * suite_dataset.column("L2M")
        assert np.allclose(model.predict(suite_dataset.X), expected)

    def test_unknown_penalty_name_rejected(self, suite_dataset):
        model = NaiveFixedPenaltyModel(penalties={"NotAnEvent": 1.0})
        with pytest.raises(DataError):
            model.fit(suite_dataset)
