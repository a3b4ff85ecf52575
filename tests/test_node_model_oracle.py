"""The node-model primitives against their straight-line references.

:mod:`repro.core.tree.linear` fits each node on one per-call state that
computes column ranges, target moments, correlations and subset solves
once; the ``reference_*`` functions in :mod:`repro.conformance.oracle`
recompute everything for every refit.  Every model field and every
selected attribute list must match bit for bit.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance.oracle import (
    reference_fit_linear_model,
    reference_resolve_opposed_pairs,
    reference_select_uncorrelated,
    reference_simplify_model,
)
from repro.core.tree import M5Prime
from repro.core.tree.builder import TreeBuilder
from repro.core.tree.linear import (
    _NodeState,
    fit_linear_model,
    resolve_opposed_pairs,
    select_uncorrelated,
    simplify_model,
)
from repro.experiments import ExperimentConfig, suite_dataset

#: Correlations just either side of the two thresholds the tree uses.
NEAR_CORRELATIONS = (0.945, 0.955, 0.745, 0.755, -0.945, -0.955, -0.745, -0.755)

COLUMN_KINDS = ("free", "free", "constant", "duplicate", "negated", "near")


def float_bits(value):
    return struct.pack("<d", value)


def model_bits(model):
    """Every field of a LinearModel, floats as their exact bit patterns."""
    return (
        float_bits(model.intercept),
        tuple(model.indices),
        tuple(model.names),
        tuple(float_bits(c) for c in model.coefficients),
        model.n_training,
        float_bits(model.training_error),
    )


def _unit(v):
    v = v - v.mean()
    norm = np.linalg.norm(v)
    return v / norm if norm > 0 else v


def _correlated_with(source, rho, rng):
    """A column whose sample correlation with ``source`` is ~``rho``."""
    a = _unit(source)
    e = rng.normal(size=source.shape[0])
    e = _unit(e - (e @ a) * a)
    return 3.0 + 2.0 * (rho * a + np.sqrt(1.0 - rho * rho) * e)


@st.composite
def node_data(draw):
    """Random node data with the shapes M5' nodes run into."""
    n = draw(st.one_of(st.integers(1, 4), st.integers(5, 40)))
    k = draw(st.integers(1, 6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = rng.normal(size=(n, k)) * rng.choice([1e-3, 1.0, 1e3], size=k)
    for j in range(k):
        kind = draw(st.sampled_from(COLUMN_KINDS))
        source = X[:, draw(st.integers(0, j - 1))] if j else X[:, 0]
        if kind == "constant":
            X[:, j] = draw(st.sampled_from([0.0, 1.5]))
        elif kind == "duplicate" and j:
            X[:, j] = source
        elif kind == "negated" and j:
            X[:, j] = -source
        elif kind == "near" and j and n >= 3:
            rho = draw(st.sampled_from(NEAR_CORRELATIONS))
            X[:, j] = _correlated_with(source, rho, rng)
    if draw(st.booleans()):
        y = X @ rng.normal(size=k) + 0.1 * rng.normal(size=n)
    else:
        y = np.full(n, 2.0) + draw(st.sampled_from([0.0, 1e-3])) * rng.normal(size=n)
    candidates = sorted(draw(st.sets(st.integers(0, k - 1), max_size=k)))
    nonnegative = tuple(draw(st.sets(st.integers(0, k - 1), max_size=k)))
    return {
        "X": X,
        "y": y,
        "candidates": candidates,
        "names": tuple(f"a{j}" for j in range(k)),
        "ridge": draw(st.sampled_from([0.0, 1e-4])),
        "nonnegative": nonnegative if draw(st.booleans()) else (),
        "threshold": draw(st.sampled_from([0.75, 0.95, 1.0])),
        "corr_threshold": draw(st.sampled_from([0.75, 0.95])),
    }


def assert_pipeline_matches(X, y, candidates, names, ridge, nonnegative,
                            threshold, corr_threshold=0.75):
    """Each primitive equals its reference, fed identical inputs."""
    kept = select_uncorrelated(X, y, candidates, threshold)
    assert kept == reference_select_uncorrelated(X, y, candidates, threshold)

    model = fit_linear_model(X, y, kept, names, ridge, nonnegative)
    reference = reference_fit_linear_model(X, y, kept, names, ridge, nonnegative)
    assert model_bits(model) == model_bits(reference)

    simplified = simplify_model(model, X, y, names, ridge, nonnegative)
    assert model_bits(simplified) == model_bits(
        reference_simplify_model(model, X, y, names, ridge, nonnegative)
    )

    # The unsimplified fit keeps the most opposed pairs to dissolve.
    for start in (model, simplified):
        resolved = resolve_opposed_pairs(
            start, X, y, names, ridge, corr_threshold, nonnegative
        )
        assert model_bits(resolved) == model_bits(
            reference_resolve_opposed_pairs(
                start, X, y, names, ridge, corr_threshold, nonnegative
            )
        )


class TestPrimitivesMatchReference:
    @settings(max_examples=150, deadline=None)
    @given(node_data())
    def test_random_nodes(self, node):
        assert_pipeline_matches(
            node["X"], node["y"], node["candidates"], node["names"],
            node["ridge"], node["nonnegative"], node["threshold"],
            node["corr_threshold"],
        )

    @pytest.mark.parametrize("ridge", [0.0, 1e-4])
    def test_saturated_and_single_row_nodes(self, ridge):
        rng = np.random.default_rng(4)
        names = tuple(f"a{j}" for j in range(5))
        for n in (1, 2, 3, 5, 6):
            X = rng.normal(size=(n, 5))
            y = rng.normal(size=n)
            assert_pipeline_matches(X, y, list(range(5)), names, ridge, (), 0.95)

    def test_explosive_pair_is_resolved_identically(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=50)
        X = np.column_stack([a, a + 1e-3 * rng.normal(size=50), rng.normal(size=50)])
        y = 2 * a + 0.5 * X[:, 2] + 0.05 * rng.normal(size=50)
        names = ("a", "a2", "b")
        for ridge in (0.0, 1e-4):
            assert_pipeline_matches(X, y, [0, 1, 2], names, ridge, (), 1.0)


@pytest.fixture(scope="module")
def quick_suite_nodes(tmp_path_factory):
    """Every node's model inputs from a quick-suite fit at min_instances=6."""
    dataset = suite_dataset(
        ExperimentConfig.quick(), cache_dir=tmp_path_factory.mktemp("cache")
    )
    nodes = []
    original = TreeBuilder._fit_model

    def recording(builder, X, y, path_attributes, subtree_attributes):
        nodes.append((builder, X, y, path_attributes | subtree_attributes))
        return original(builder, X, y, path_attributes, subtree_attributes)

    TreeBuilder._fit_model = recording
    try:
        M5Prime(min_instances=6).fit(dataset)
    finally:
        TreeBuilder._fit_model = original
    return nodes


def test_every_quick_suite_node_matches(quick_suite_nodes):
    assert len(quick_suite_nodes) > 100
    for builder, X, y, candidates in quick_suite_nodes:
        assert_pipeline_matches(
            X, y, sorted(candidates), builder._names, builder.ridge,
            builder._nonnegative_indices, builder.collinearity_threshold,
        )


class TestCorrelationReplica:
    """The node state's correlation is ``np.corrcoef(a, b)[0, 1]`` exactly."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.integers(2, 300),
        st.integers(0, 2**32 - 1),
        st.sampled_from([1e-6, 1.0, 1e6]),
    )
    def test_both_argument_orders(self, n, seed, scale):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, 3)) * scale + rng.normal(size=3)
        X[:, 2] = X[:, 0] + 1e-2 * scale * rng.normal(size=n)
        y = rng.normal(size=n) + X[:, 1]
        state = _NodeState(X, y)
        columns = {0: X[:, 0], 1: X[:, 1], 2: X[:, 2], None: y}
        for i in columns:
            for j in columns:
                if i == j:
                    continue
                expected = np.corrcoef(columns[i], columns[j])[0, 1]
                assert float_bits(state.correlation(i, j)) == float_bits(expected)

    def test_memo_keys_on_the_ordered_pair(self):
        # On this data the two argument orders of np.corrcoef differ in
        # the last bit; each order must get its own value.
        X = np.random.default_rng(0).normal(size=(13, 3))
        state = _NodeState(X, np.zeros(13))
        backward = state.correlation(2, 0)
        forward = state.correlation(0, 2)
        assert float_bits(forward) == float_bits(np.corrcoef(X[:, 0], X[:, 2])[0, 1])
        assert float_bits(backward) == float_bits(np.corrcoef(X[:, 2], X[:, 0])[0, 1])

    def test_ptp_guard_returns_zero(self):
        n = 20
        X = np.column_stack([
            np.linspace(0.0, 1.0, n),
            np.full(n, 3.0),                    # constant
            np.where(np.arange(n) % 2, 1e-15, 0.0),  # ptp exactly 1e-15
        ])
        y = np.linspace(1.0, 2.0, n)
        state = _NodeState(X, y)
        assert np.corrcoef(X[:, 2], y)[0, 1] != 0.0  # numpy alone would not
        for i, j in ((1, 0), (0, 1), (2, 0), (0, 2), (1, None), (2, None)):
            assert float_bits(state.correlation(i, j)) == float_bits(0.0)
        assert _NodeState(X, np.full(n, 7.0)).correlation(0, None) == 0.0
