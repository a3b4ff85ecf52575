"""Compiled tree inference: bit-identity with the interpreted walk."""

import copy
import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.baselines import BaggedM5
from repro.core.tree import M5Prime, model_from_dict, model_to_dict
from repro.core.tree.node import route
from repro.core.tree.smoothing import smoothed_predict
from repro.errors import ConfigError, DataError, NotFittedError
from repro.serve.compiled import compile_tree
from repro.serve.server import ModelServer

values = st.floats(-1e6, 1e6, allow_nan=False, allow_infinity=False, width=64)


@st.composite
def fitted_models(draw, max_rows=80, max_cols=4):
    n = draw(st.integers(12, max_rows))
    p = draw(st.integers(1, max_cols))
    X = draw(hnp.arrays(np.float64, (n, p), elements=values))
    y = draw(hnp.arrays(np.float64, (n,), elements=values))
    min_instances = draw(st.integers(2, 10))
    smoothing = draw(st.booleans())
    names = tuple(f"attr{i}" for i in range(p))
    model = M5Prime(min_instances=min_instances, smoothing=smoothing)
    model.fit(X, y, names)
    probe_rows = draw(st.integers(1, 20))
    probes = draw(hnp.arrays(np.float64, (probe_rows, p), elements=values))
    return model, probes


def interpreted(model, X, smoothing=None):
    """The scalar reference walk the compiled path must reproduce
    (smoothed as the model is fitted unless ``smoothing`` says)."""
    root = model.root_
    if model.smoothing if smoothing is None else smoothing:
        return np.array(
            [smoothed_predict(root, x, k=model.smoothing_k) for x in X]
        )
    return np.array([route(root, x).model.predict_one(x) for x in X])


class TestBitIdentity:
    @settings(max_examples=30, deadline=None)
    @given(fitted_models())
    def test_predict_matches_interpreted_exactly(self, model_and_probes):
        model, probes = model_and_probes
        compiled = model.compiled_
        k = model.smoothing_k if model.smoothing else None
        got = compiled.predict(probes, smoothing_k=k)
        want = interpreted(model, probes)
        # Bit-identical, not merely close: array_equal on float arrays.
        assert np.array_equal(got, want)
        # A tree is the one-tree arena: one routing column, and its one
        # row of per-tree predictions is the prediction itself.
        assert compiled.n_trees == 1
        assert compiled.route(probes).shape == (probes.shape[0], 1)
        for smoothing in (False, True):
            k = model.smoothing_k if smoothing else None
            want = interpreted(model, probes, smoothing)
            per_tree = compiled.predict_trees(probes, smoothing_k=k)
            assert np.array_equal(per_tree[0], want)
            assert np.array_equal(compiled.predict(probes, smoothing_k=k), want)
            # The server's one route per batch: the same predictions and
            # the route leaf ids are read from.
            predictions, nodes = compiled.predict_routed(probes, smoothing_k=k)
            assert np.array_equal(predictions, want)
            assert np.array_equal(nodes, compiled.route(probes))

    @settings(max_examples=30, deadline=None)
    @given(fitted_models())
    def test_leaf_ids_match_interpreted_routing(self, model_and_probes):
        model, probes = model_and_probes
        got = model.compiled_.leaf_ids(probes)
        want = np.array([route(model.root_, x).leaf_id for x in probes])
        assert np.array_equal(got, want)

    @settings(max_examples=15, deadline=None)
    @given(fitted_models())
    def test_json_round_trip_preserves_compiled_output(self, model_and_probes):
        model, probes = model_and_probes
        document = json.loads(json.dumps(model_to_dict(model)))
        restored = model_from_dict(document)
        assert np.array_equal(
            model.compiled_.predict(probes),
            restored.compiled_.predict(probes),
        )

    def test_m5prime_predict_routes_through_compiled(self, suite_tree,
                                                     suite_dataset):
        X = suite_dataset.X
        assert np.array_equal(
            suite_tree.predict(X), suite_tree.compiled_.predict(X)
        )
        assert np.array_equal(
            suite_tree.leaf_ids(X), suite_tree.compiled_.leaf_ids(X)
        )


#: Finite values whose leaf-model and smoothing sums overflow.
_NEAR_LIMIT = (1e308, -1e308, 1.7976931348623157e308, -1.7976931348623157e308)


@st.composite
def served_rows(draw):
    """A fitted tree and rows of arbitrary values, values near the float
    limit and values lying exactly on the tree's split thresholds; every
    split also gets a row whose split attribute equals its threshold."""
    model, probes = draw(fitted_models())
    compiled = model.compiled_
    splits = np.flatnonzero(compiled.feature >= 0)
    cells = st.one_of(
        values, st.sampled_from(_NEAR_LIMIT),
        *([st.sampled_from(compiled.threshold[splits].tolist())]
          if splits.size else []),
    )
    rows = draw(hnp.arrays(np.float64, probes.shape, elements=cells))
    on_split = np.repeat(probes[:1], splits.size, axis=0)
    on_split[np.arange(splits.size), compiled.feature[splits]] = (
        compiled.threshold[splits]
    )
    return model, np.vstack([rows, on_split])


class TestLoneRowWalk:
    """The server scores a lone row by the interpreted walk and a larger
    batch through the arena's ``predict_routed``: the same bits."""

    @settings(max_examples=40, deadline=None)
    @given(served_rows())
    def test_walk_matches_predict_routed(self, model_and_rows):
        model, rows = model_and_rows
        for smoothing in (False, True):
            variant = copy.copy(model)
            variant.smoothing = smoothing
            evaluate = ModelServer(port=0).add_model("m", variant).queue.evaluate
            with np.errstate(all="ignore"):
                predictions, nodes = model.compiled_.predict_routed(
                    rows, smoothing_k=model.smoothing_k if smoothing else None
                )
                lone = np.concatenate(
                    [evaluate(rows[i:i + 1]) for i in range(rows.shape[0])]
                )
            assert lone["prediction"].tobytes() == predictions.tobytes()
            assert np.array_equal(
                lone["leaf_id"], model.compiled_.leaf_id[nodes[:, 0]]
            )


class TestCompiledStructure:
    def test_preorder_layout(self, figure1_tree):
        compiled = figure1_tree.compiled_
        nodes = list(figure1_tree.root_.iter_nodes())
        assert compiled.n_nodes == len(nodes)
        assert compiled.n_leaves == figure1_tree.n_leaves
        assert compiled.parent[0] == -1
        # Term arrays are CSR-consistent.
        assert compiled.term_offset[0] == 0
        assert compiled.term_offset[-1] == len(compiled.term_feature)
        # Every leaf keeps its LM number.
        leaf_ids = sorted(
            int(i) for i in compiled.leaf_id[compiled.feature < 0]
        )
        assert leaf_ids == list(range(1, figure1_tree.n_leaves + 1))

    def test_compiled_cache_invalidated_on_refit(self, figure1_data):
        model = M5Prime(min_instances=40).fit(figure1_data)
        first = model.compiled_
        assert model.compiled_ is first  # cached
        model.fit(figure1_data)
        assert model.compiled_ is not first  # new root_, new compilation

    def test_unfitted_model_has_no_compiled_form(self):
        with pytest.raises(NotFittedError):
            M5Prime().compiled_

    def test_one_member_forest_arena_is_its_member_arena(self, figure1_data):
        forest = BaggedM5(n_estimators=1, min_instances=30, seed=1)
        forest.fit(figure1_data)
        ensemble, member = forest.compiled_, forest[0].compiled_
        for field in dataclasses.fields(ensemble):
            got = getattr(ensemble, field.name)
            want = getattr(member, field.name)
            if isinstance(want, np.ndarray):
                assert got.dtype == want.dtype, field.name
                assert np.array_equal(got, want, equal_nan=True), field.name
            else:
                assert got == want, field.name


class TestCompiledErrors:
    def test_width_mismatch_rejected(self, figure1_tree):
        with pytest.raises(DataError):
            figure1_tree.compiled_.predict(np.zeros((3, 7)))

    def test_one_dimensional_input_rejected(self, figure1_tree):
        with pytest.raises(DataError):
            figure1_tree.compiled_.predict(np.zeros(2))

    def test_negative_smoothing_k_rejected(self, figure1_tree):
        X = np.zeros((1, len(figure1_tree.attributes_)))
        with pytest.raises(ConfigError):
            figure1_tree.compiled_.predict(X, smoothing_k=-1.0)

    def test_out_of_range_split_index_rejected(self, figure1_tree):
        # Compiling against fewer features than the splits reference.
        with pytest.raises(DataError):
            compile_tree([figure1_tree.root_], 0)

    def test_nan_threshold_rejected(self, figure1_tree):
        # A NaN threshold compares false against everything, so every
        # row would silently route right; compile must refuse instead.
        import copy

        root = copy.deepcopy(figure1_tree.root_)
        root.threshold = float("nan")
        with pytest.raises(DataError, match="non-finite threshold"):
            compile_tree([root], len(figure1_tree.attributes_))

    def test_empty_batch(self, figure1_tree):
        X = np.empty((0, len(figure1_tree.attributes_)))
        assert figure1_tree.compiled_.predict(X).shape == (0,)
        assert figure1_tree.compiled_.leaf_ids(X).shape == (0,)
        predictions, nodes = figure1_tree.compiled_.predict_routed(X)
        assert predictions.shape == (0,) and nodes.shape == (0, 1)
