"""Tests for the Dataset container."""

import numpy as np
import pytest

from repro.datasets import Dataset
from repro.errors import DataError


def small_dataset():
    return Dataset(
        X=[[1.0, 2.0], [3.0, 4.0], [5.0, 6.0]],
        y=[1.0, 2.0, 3.0],
        attributes=("a", "b"),
        meta={"workload": ["x", "x", "y"]},
    )


class TestConstruction:
    def test_shapes(self):
        ds = small_dataset()
        assert ds.n_instances == 3
        assert ds.n_attributes == 2
        assert len(ds) == 3

    def test_mismatched_y_rejected(self):
        with pytest.raises(DataError):
            Dataset([[1.0]], [1.0, 2.0], ("a",))

    def test_wrong_attribute_count_rejected(self):
        with pytest.raises(DataError):
            Dataset([[1.0, 2.0]], [1.0], ("a",))

    def test_duplicate_attributes_rejected(self):
        with pytest.raises(DataError):
            Dataset([[1.0, 2.0]], [1.0], ("a", "a"))

    def test_target_clashing_with_attribute_rejected(self):
        with pytest.raises(DataError):
            Dataset([[1.0]], [1.0], ("CPI",), target_name="CPI")

    def test_nan_rejected(self):
        with pytest.raises(DataError):
            Dataset([[float("nan")]], [1.0], ("a",))

    def test_meta_length_mismatch_rejected(self):
        with pytest.raises(DataError):
            Dataset([[1.0]], [1.0], ("a",), meta={"workload": ["x", "y"]})

    def test_from_rows(self):
        ds = Dataset.from_rows(
            [{"a": 1.0, "CPI": 2.0}, {"a": 3.0, "CPI": 4.0}], ("a",)
        )
        assert ds.y[1] == 4.0

    def test_from_rows_empty_rejected(self):
        with pytest.raises(DataError):
            Dataset.from_rows([], ("a",))


class TestAccess:
    def test_attribute_index(self):
        assert small_dataset().attribute_index("b") == 1

    def test_unknown_attribute(self):
        with pytest.raises(DataError):
            small_dataset().attribute_index("zzz")

    def test_column(self):
        assert list(small_dataset().column("a")) == [1.0, 3.0, 5.0]

    def test_repr_mentions_shape(self):
        assert "n_instances=3" in repr(small_dataset())


class TestTransforms:
    def test_subset_by_indices(self):
        sub = small_dataset().subset([0, 2])
        assert sub.n_instances == 2
        assert list(sub.meta["workload"]) == ["x", "y"]

    def test_subset_by_mask(self):
        ds = small_dataset()
        sub = ds.subset(ds.y > 1.5)
        assert sub.n_instances == 2

    def test_select_attributes(self):
        sub = small_dataset().select_attributes(["b"])
        assert sub.attributes == ("b",)
        assert list(sub.X[:, 0]) == [2.0, 4.0, 6.0]

    def test_with_meta(self):
        ds = small_dataset().with_meta(phase=[0, 1, 1])
        assert "phase" in ds.meta
        assert "workload" in ds.meta

    def test_concat(self):
        ds = small_dataset()
        combined = Dataset.concat([ds, ds])
        assert combined.n_instances == 6
        assert list(combined.meta["workload"]) == ["x", "x", "y"] * 2

    def test_concat_incompatible_attributes(self):
        other = Dataset([[1.0]], [1.0], ("z",))
        with pytest.raises(DataError):
            Dataset.concat([small_dataset(), other])

    def test_concat_incompatible_target(self):
        other = Dataset([[1.0, 2.0]], [1.0], ("a", "b"), target_name="T")
        with pytest.raises(DataError):
            Dataset.concat([small_dataset(), other])

    def test_concat_empty_rejected(self):
        with pytest.raises(DataError):
            Dataset.concat([])

    def test_shuffled_preserves_pairs(self, rng):
        ds = small_dataset()
        shuffled = ds.shuffled(rng)
        # Every (x-row, y) pair must survive the permutation.
        original = {tuple(row) + (target,) for row, target in zip(ds.X, ds.y)}
        permuted = {
            tuple(row) + (target,) for row, target in zip(shuffled.X, shuffled.y)
        }
        assert original == permuted


class TestStats:
    def test_describe_includes_target(self):
        summary = small_dataset().describe()
        assert summary["CPI"]["mean"] == pytest.approx(2.0)
        assert summary["a"]["min"] == 1.0
        assert summary["b"]["max"] == 6.0

    def test_target_sd(self):
        assert small_dataset().target_sd() == pytest.approx(np.std([1, 2, 3]))


class TestNonFiniteTargetsOnTheArrayPath:
    """``(X, y, names)`` input checks ``y`` as a Dataset's ``y`` is checked."""

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_every_learner_rejects_it(self, bad):
        from repro.baselines import BaggedM5, LinearRegressionBaseline
        from repro.core.tree import M5Prime
        from repro.datasets.synthetic import figure1_dataset
        from repro.serve.refine import RefinedForest

        data = figure1_dataset(n=80, noise_sd=0.05, rng=3)
        y = data.y.copy()
        y[5] = bad
        forest = BaggedM5(n_estimators=2, min_instances=10, seed=1).fit(data)
        fits = (
            lambda: M5Prime(min_instances=10).fit(data.X, y, data.attributes),
            lambda: LinearRegressionBaseline().fit(data.X, y, data.attributes),
            lambda: RefinedForest(forest).fit(data.X, y),
        )
        for fit in fits:
            with pytest.raises(DataError, match=r"^y contains NaN or infinite"):
                fit()
