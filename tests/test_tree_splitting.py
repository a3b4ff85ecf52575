"""Tests for the SDR split search."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tree import splitting
from repro.core.tree.splitting import find_best_split, partition_order
from repro.errors import ConfigError, DataError


class TestFindBestSplit:
    def test_perfect_step_found(self):
        X = np.linspace(0, 1, 100).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float)
        split = find_best_split(X, y, min_leaf=2)
        assert split is not None
        assert split.attribute_index == 0
        assert 0.45 < split.threshold < 0.55
        assert split.n_left + split.n_right == 100

    def test_picks_most_discriminative_attribute(self, rng):
        X = rng.uniform(size=(200, 3))
        y = np.where(X[:, 1] > 0.3, 5.0, 0.0) + rng.normal(0, 0.01, 200)
        split = find_best_split(X, y, min_leaf=5)
        assert split.attribute_index == 1

    def test_constant_target_no_split(self, rng):
        X = rng.uniform(size=(50, 2))
        y = np.full(50, 2.0)
        assert find_best_split(X, y) is None

    def test_constant_attributes_no_split(self):
        X = np.ones((50, 2))
        y = np.arange(50, dtype=float)
        assert find_best_split(X, y) is None

    def test_min_leaf_respected(self):
        X = np.linspace(0, 1, 20).reshape(-1, 1)
        y = np.zeros(20)
        y[0] = 100.0  # huge outlier tempts a 1-vs-19 split
        split = find_best_split(X, y, min_leaf=5)
        if split is not None:
            assert split.n_left >= 5
            assert split.n_right >= 5

    def test_too_few_instances(self):
        X = np.array([[1.0], [2.0], [3.0]])
        y = np.array([1.0, 2.0, 3.0])
        assert find_best_split(X, y, min_leaf=2) is None

    def test_threshold_between_distinct_values(self):
        X = np.array([[1.0], [1.0], [2.0], [2.0]])
        y = np.array([0.0, 0.0, 1.0, 1.0])
        split = find_best_split(X, y, min_leaf=1)
        assert split.threshold == pytest.approx(1.5)

    def test_tied_values_cannot_split(self):
        X = np.ones((10, 1))
        X[5:] = 1.0  # all identical
        y = np.arange(10, dtype=float)
        assert find_best_split(X, y, min_leaf=1) is None

    def test_sdr_positive(self):
        X = np.linspace(0, 1, 50).reshape(-1, 1)
        y = (X[:, 0] > 0.4).astype(float) * 3.0
        split = find_best_split(X, y, min_leaf=2)
        assert split.sdr > 0

    def test_sdr_equals_manual_computation(self):
        X = np.array([[0.0], [1.0], [2.0], [3.0]])
        y = np.array([0.0, 0.0, 10.0, 10.0])
        split = find_best_split(X, y, min_leaf=1)
        sd_total = np.std(y)
        expected = sd_total - 0.0  # children are pure
        assert split.sdr == pytest.approx(expected)
        assert split.threshold == pytest.approx(1.5)

    def test_deterministic_tie_break_lowest_attribute(self):
        # Two identical attributes: the lower index must win.
        X = np.linspace(0, 1, 40).reshape(-1, 1)
        X = np.hstack([X, X])
        y = (X[:, 0] > 0.5).astype(float)
        split = find_best_split(X, y, min_leaf=2)
        assert split.attribute_index == 0

    def test_invalid_min_leaf(self):
        with pytest.raises(ConfigError):
            find_best_split(np.ones((4, 1)), np.ones(4), min_leaf=0)

    def test_unsorted_input_handled(self, rng):
        X = rng.permutation(np.linspace(0, 1, 100)).reshape(-1, 1)
        y = (X[:, 0] > 0.5).astype(float)
        split = find_best_split(X, y, min_leaf=2)
        assert 0.45 < split.threshold < 0.55


class TestAdjacentFloatValues:
    def test_threshold_strictly_separates_neighbouring_floats(self):
        # Two distinct but adjacent floats: the midpoint rounds to one of
        # them; the split must still partition strictly.
        lo = 1.0
        hi = np.nextafter(lo, np.inf)
        X = np.array([[lo]] * 5 + [[hi]] * 5)
        y = np.array([0.0] * 5 + [1.0] * 5)
        split = find_best_split(X, y, min_leaf=2)
        assert split is not None
        left = X[:, 0] <= split.threshold
        assert 0 < np.count_nonzero(left) < len(y)

    def test_tree_terminates_on_adjacent_floats(self):
        from repro.core.tree import M5Prime

        lo = 1.0
        hi = np.nextafter(lo, np.inf)
        X = np.array([[lo]] * 8 + [[hi]] * 8)
        y = np.array([0.0] * 8 + [1.0] * 8)
        model = M5Prime(min_instances=2).fit(X, y)
        assert model.depth <= 2
        assert np.allclose(model.predict(X), y, atol=1e-6)


class TestChunkedScanEquivalence:
    """Any block width must return the identical split (same tie-breaks)."""

    @pytest.mark.parametrize("chunk_size", [1, 2, 5, 32, 1000])
    def test_chunk_size_does_not_change_result(self, rng, chunk_size, monkeypatch):
        X = rng.normal(size=(80, 17))
        y = X[:, 3] * 2.0 + rng.normal(scale=0.2, size=80)
        monkeypatch.setattr(splitting, "CHUNK_SIZE", 1)
        reference = find_best_split(X, y, min_leaf=5)
        monkeypatch.setattr(splitting, "CHUNK_SIZE", chunk_size)
        assert find_best_split(X, y, min_leaf=5) == reference

    def test_tied_attributes_resolve_to_lowest_index(self, monkeypatch):
        # Two identical columns: identical SDR everywhere; the scan must
        # keep attribute 0 regardless of how columns are chunked.
        x = np.linspace(0.0, 1.0, 40)
        X = np.column_stack([x, x])
        y = (x > 0.5).astype(float)
        for chunk_size in (1, 2):
            monkeypatch.setattr(splitting, "CHUNK_SIZE", chunk_size)
            split = find_best_split(X, y, min_leaf=2)
            assert split.attribute_index == 0


@st.composite
def node_with_split(draw):
    """A node with tied, constant and duplicated columns and rows, a mask."""
    n = draw(st.integers(2, 40))
    p = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    # Few distinct values, so ties are common.
    X = rng.integers(0, draw(st.integers(1, 5)), size=(n, p)).astype(float)
    for j in range(p):
        kind = draw(st.sampled_from(["keep", "constant", "duplicate", "continuous"]))
        if kind == "constant":
            X[:, j] = 1.5
        elif kind == "duplicate" and j:
            X[:, j] = X[:, draw(st.integers(0, j - 1))]
        elif kind == "continuous":
            X[:, j] = rng.normal(size=n)
    if draw(st.booleans()):
        rows = rng.integers(0, n, size=n // 2)
        X[rng.permutation(n)[: n // 2]] = X[rows]  # duplicated rows
    y = rng.normal(size=n) if draw(st.booleans()) else X @ rng.normal(size=p)
    go_left = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
    return X, y, go_left


class TestPresortedOrder:
    """The builder's per-node orders equal a fresh stable argsort."""

    @settings(max_examples=200, deadline=None)
    @given(node_with_split())
    def test_partition_equals_child_argsort(self, node):
        X, y, go_left = node
        order = np.argsort(X, axis=0, kind="stable")
        left, right = partition_order(order, go_left)
        for child, mask in ((left, go_left), (right, ~go_left)):
            expected = np.argsort(X[mask], axis=0, kind="stable")
            assert child.shape == expected.shape
            assert np.array_equal(child, expected)

    @settings(max_examples=200, deadline=None)
    @given(node_with_split(), st.sampled_from([1, 2, 3, 5]))
    def test_split_from_order_equals_sorted_split(self, node, min_leaf):
        X, y, go_left = node
        order = np.argsort(X, axis=0, kind="stable")
        assert find_best_split(X, y, min_leaf, order=order) == find_best_split(
            X, y, min_leaf
        )
        left, right = partition_order(order, go_left)
        for mask, child in ((go_left, left), (~go_left, right)):
            assert find_best_split(X[mask], y[mask], min_leaf, order=child) == (
                find_best_split(X[mask], y[mask], min_leaf)
            )

    def test_order_of_another_shape_is_rejected(self, rng):
        X = rng.normal(size=(20, 3))
        y = rng.normal(size=20)
        order = np.argsort(X, axis=0, kind="stable")
        with pytest.raises(DataError, match="shape"):
            find_best_split(X, y, order=order[:, :2])
        with pytest.raises(DataError, match="shape"):
            find_best_split(X, y, order=order[:10])
