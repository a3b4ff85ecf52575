"""Tests for the compiled arena over a forest (repro.serve.compiled)."""

import numpy as np
import pytest

from repro.baselines import BaggedM5
from repro.core.tree.node import route
from repro.datasets.synthetic import figure1_dataset
from repro.errors import ConfigError, DataError, NotFittedError


@pytest.fixture(scope="module")
def data():
    return figure1_dataset(n=240, noise_sd=0.05, rng=5)


@pytest.fixture(scope="module")
def forest(data):
    return BaggedM5(n_estimators=5, min_instances=20, seed=9).fit(data)


@pytest.fixture(scope="module")
def compiled(forest):
    return forest.compiled_


class TestArenaLayout:
    def test_offsets_cover_member_arenas(self, forest, compiled):
        assert compiled.n_trees == len(forest)
        assert compiled.tree_offset[0] == 0
        assert compiled.leaf_offset[0] == 0
        for t, member in enumerate(forest):
            tree = member.compiled_
            assert (compiled.tree_offset[t + 1] - compiled.tree_offset[t]
                    == tree.n_nodes)
            assert (compiled.leaf_offset[t + 1] - compiled.leaf_offset[t]
                    == tree.n_leaves)
        assert compiled.tree_offset[-1] == compiled.n_nodes
        assert compiled.leaf_offset[-1] == compiled.total_leaves

    def test_member_arrays_concatenated_verbatim(self, forest, compiled):
        for t, member in enumerate(forest):
            tree = member.compiled_
            base = int(compiled.tree_offset[t])
            stop = int(compiled.tree_offset[t + 1])
            assert np.array_equal(compiled.feature[base:stop], tree.feature)
            # Leaf nodes carry NaN thresholds.
            assert np.array_equal(
                compiled.threshold[base:stop], tree.threshold, equal_nan=True
            )
            assert np.array_equal(
                compiled.intercept[base:stop], tree.intercept
            )

    def test_children_rebased_into_own_tree(self, compiled):
        for t in range(compiled.n_trees):
            base = int(compiled.tree_offset[t])
            stop = int(compiled.tree_offset[t + 1])
            children = np.r_[compiled.left[base:stop],
                             compiled.right[base:stop]]
            children = children[children >= 0]
            assert np.all((children >= base) & (children < stop))

    def test_leaf_col_leaf_node_bijection(self, compiled):
        leaves = np.flatnonzero(compiled.feature < 0)
        columns = compiled.leaf_col[leaves]
        assert sorted(columns) == list(range(compiled.total_leaves))
        assert np.array_equal(compiled.leaf_node[columns], leaves)
        interior = np.flatnonzero(compiled.feature >= 0)
        assert np.all(compiled.leaf_col[interior] == -1)

    def test_tree_of(self, compiled):
        for t in range(compiled.n_trees):
            assert compiled.tree_of(int(compiled.tree_offset[t])) == t
            assert compiled.tree_of(int(compiled.tree_offset[t + 1]) - 1) == t
        with pytest.raises(DataError):
            compiled.tree_of(compiled.n_nodes)

    def test_serial_and_parallel_fits_compile_identically(self, data):
        serial = BaggedM5(n_estimators=4, min_instances=20, seed=3,
                          n_jobs=1).fit(data)
        parallel = BaggedM5(n_estimators=4, min_instances=20, seed=3,
                            n_jobs=2).fit(data)
        a, b = serial.compiled_, parallel.compiled_
        assert np.array_equal(a.tree_offset, b.tree_offset)
        assert np.array_equal(a.leaf_offset, b.leaf_offset)
        assert np.array_equal(a.feature, b.feature)
        assert np.array_equal(a.threshold, b.threshold, equal_nan=True)
        assert np.array_equal(a.intercept, b.intercept)
        assert np.array_equal(a.term_coefficient, b.term_coefficient)


class TestPrediction:
    def test_per_tree_bit_identical_to_members(self, forest, compiled, data):
        per_tree = compiled.predict_trees(data.X)
        assert per_tree.shape == (compiled.n_trees, data.n_instances)
        for t, member in enumerate(forest):
            assert np.array_equal(per_tree[t], member.compiled_.predict(data.X))

    def test_ensemble_mean_bit_identical_to_stacking(
        self, forest, compiled, data
    ):
        stacked = np.vstack(
            [member.predict(data.X) for member in forest]
        ).mean(axis=0)
        assert np.array_equal(compiled.predict(data.X), stacked)
        assert np.array_equal(forest.predict(data.X), stacked)

    def test_per_tree_matches_interpreted_walk(self, forest, compiled, data):
        per_tree = compiled.predict_trees(data.X)
        for t, member in enumerate(forest):
            walked = np.array([
                route(member.root_, x).model.predict_one(x) for x in data.X
            ])
            assert np.array_equal(per_tree[t], walked)

    def test_route_lands_on_own_tree_leaves(self, compiled, data):
        nodes = compiled.route(data.X)
        assert nodes.shape == (data.n_instances, compiled.n_trees)
        for t in range(compiled.n_trees):
            base, stop = compiled.tree_offset[t], compiled.tree_offset[t + 1]
            assert np.all((nodes[:, t] >= base) & (nodes[:, t] < stop))
            assert np.all(compiled.feature[nodes[:, t]] < 0)

    def test_empty_batch(self, compiled):
        X = np.empty((0, compiled.n_features))
        assert compiled.predict_trees(X).shape == (compiled.n_trees, 0)
        assert compiled.predict(X).shape == (0,)
        assert compiled.route(X).shape == (0, compiled.n_trees)

    def test_width_mismatch(self, compiled):
        with pytest.raises(DataError):
            compiled.predict(np.zeros((3, compiled.n_features + 1)))
        with pytest.raises(DataError):
            compiled.route(np.zeros(compiled.n_features))

    def test_negative_smoothing_k(self, compiled, data):
        with pytest.raises(ConfigError):
            compiled.predict_trees(data.X, smoothing_k=-1.0)

    def test_smoothed_forest_matches_members(self, data):
        forest = BaggedM5(n_estimators=3, min_instances=30, seed=4).fit(data)
        # Members are fitted without smoothing; the arena still supports
        # post-hoc smoothing with an explicit k, matching each member.
        compiled = forest.compiled_
        per_tree = compiled.predict_trees(data.X, smoothing_k=15.0)
        for t, member in enumerate(forest):
            assert np.array_equal(
                per_tree[t], member.compiled_.predict(data.X, smoothing_k=15.0)
            )


class TestLeafIndicator:
    def test_csr_structure(self, compiled, data):
        indicator = compiled.leaf_indicator(data.X)
        n = data.n_instances
        assert indicator.shape == (n, compiled.total_leaves)
        assert np.array_equal(
            indicator.indptr,
            np.arange(n + 1, dtype=np.int64) * compiled.n_trees,
        )
        assert np.all(indicator.data == 1.0)
        # Tree-major columns: strictly increasing within each row.
        columns = indicator.indices.reshape(n, compiled.n_trees)
        assert np.all(np.diff(columns, axis=1) > 0)

    def test_rows_sum_to_n_trees(self, compiled, data):
        dense = compiled.leaf_indicator(data.X).toarray()
        assert np.array_equal(
            dense.sum(axis=1), np.full(data.n_instances, compiled.n_trees)
        )

    def test_columns_within_tree_bands(self, compiled, data):
        columns = compiled.leaf_columns(data.X)
        for t in range(compiled.n_trees):
            assert np.all(columns[:, t] >= compiled.leaf_offset[t])
            assert np.all(columns[:, t] < compiled.leaf_offset[t + 1])


class TestLeafSummary:
    def test_summary_names_tree_and_model(self, compiled):
        summary = compiled.leaf_summary(0)
        assert summary["column"] == 0
        assert summary["tree"] == 0
        assert compiled.leaf_col[summary["node"]] == 0
        assert isinstance(summary["terms"], list)

    def test_out_of_range(self, compiled):
        with pytest.raises(DataError):
            compiled.leaf_summary(compiled.total_leaves)


class TestCompileErrors:
    def test_unfitted_forest(self):
        with pytest.raises(NotFittedError):
            BaggedM5(n_estimators=2).compiled_

    def test_smoothing_mismatch(self, data):
        forest = BaggedM5(n_estimators=2, min_instances=30, seed=1).fit(data)
        forest.estimators_[1].smoothing = True
        try:
            with pytest.raises(ConfigError):
                forest.compiled_
        finally:
            forest.estimators_[1].smoothing = False


class TestSequenceProtocol:
    def test_len_getitem_iter(self, forest):
        assert len(forest) == forest.n_estimators
        assert list(forest) == [forest[i] for i in range(len(forest))]

    def test_n_leaves_totals(self, forest, compiled):
        assert forest.n_leaves == compiled.total_leaves
        assert forest.mean_leaves_ == pytest.approx(
            compiled.total_leaves / compiled.n_trees
        )
