"""The node-model primitives against their straight-line references.

:mod:`repro.core.tree.linear` fits each node on one node state that
computes column ranges, target moments, centred rows and correlations
once and runs ridge solves and correlations as stacked batches; the
tree builder shares that state across a node's four calls.  The
``reference_*`` functions in :mod:`repro.conformance.oracle` recompute
everything for every refit, one subset and one pair at a time.  Every model field and
every selected attribute list must match bit for bit.
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
from repro.core.tree import M5Prime, linear
from repro.core.tree.builder import TreeBuilder
from repro.core.tree.linear import (
    _NodeState,
    fit_linear_model,
    resolve_opposed_pairs,
    select_uncorrelated,
    simplify_model,
)
from repro.errors import ConfigError
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
    """Each primitive equals its reference, fed identical inputs.

    Each call also runs on one node state shared by all of them, as the
    tree builder runs a node, and must give the same bits.
    """
    shared = _NodeState(X, y, ridge, nonnegative)
    kept = select_uncorrelated(X, y, candidates, threshold)
    assert kept == reference_select_uncorrelated(X, y, candidates, threshold)
    assert select_uncorrelated(X, y, candidates, threshold, state=shared) == kept

    model = fit_linear_model(X, y, kept, names, ridge, nonnegative)
    reference = reference_fit_linear_model(X, y, kept, names, ridge, nonnegative)
    assert model_bits(model) == model_bits(reference)
    assert model_bits(
        fit_linear_model(X, y, kept, names, ridge, nonnegative, state=shared)
    ) == model_bits(model)

    simplified = simplify_model(model, X, y, names, ridge, nonnegative)
    assert model_bits(simplified) == model_bits(
        reference_simplify_model(model, X, y, names, ridge, nonnegative)
    )
    assert model_bits(
        simplify_model(model, X, y, names, ridge, nonnegative, state=shared)
    ) == model_bits(simplified)

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
        assert model_bits(resolve_opposed_pairs(
            start, X, y, names, ridge, corr_threshold, nonnegative, state=shared
        )) == model_bits(resolved)


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


def fit_bits(fit):
    """A subset solve's fields, floats as their exact bit patterns."""
    return (
        tuple(fit.indices),
        float_bits(fit.intercept),
        tuple(float_bits(c) for c in fit.coefficients),
        float_bits(fit.training_error),
    )


def reference_fit_bits(X, y, subset, ridge, nonnegative=()):
    names = tuple(f"a{j}" for j in range(X.shape[1]))
    model = reference_fit_linear_model(X, y, subset, names, ridge, nonnegative)
    return (
        model.indices,
        float_bits(model.intercept),
        tuple(float_bits(c) for c in model.coefficients),
        float_bits(model.training_error),
    )


def counter_node(n, k, seed):
    """Counter-like node data: skewed rates at mixed scales, one near-duplicate."""
    rng = np.random.default_rng(seed)
    X = rng.gamma(0.5, size=(n, k)) * rng.choice([1e-3, 1.0, 1e3], size=k)
    if k > 2:
        X[:, k - 1] = X[:, 0] * (1 + 1e-3 * rng.normal(size=n))
    y = 0.5 + X @ rng.normal(size=k) + 0.1 * rng.normal(size=n)
    return X, y


#: Memory layouts of a node's X: C-ordered rows (what the builder passes),
#: F-ordered, and a strided view of every other column of a wider matrix.
LAYOUTS = ("C", "F", "view")


def laid_out(X, layout):
    """``X``'s values in the given memory layout."""
    if layout == "F":
        return np.asfortranarray(X)
    if layout == "view":
        wide = np.zeros((X.shape[0], 2 * X.shape[1]))
        wide[:, ::2] = X
        return wide[:, ::2]
    return np.ascontiguousarray(X)


def in_each_layout(names, cases):
    """Parametrize ``names`` and ``layout`` over ``cases`` times LAYOUTS.

    The C-ordered cases keep the ids they had before the layout was a
    parameter; the others append theirs.
    """
    params = []
    for layout in LAYOUTS:
        for case in cases:
            values = case if isinstance(case, tuple) else (case,)
            base = "-".join(str(value) for value in values)
            params.append(pytest.param(
                *values, layout, id=base if layout == "C" else f"{base}-{layout}"
            ))
    return pytest.mark.parametrize(f"{names}, layout", params)


@pytest.fixture
def stacked_calls(monkeypatch):
    """How many subsets each stacked ridge call of the test solved."""
    calls = []
    original = _NodeState._ridge_fits

    def counting(state, subsets):
        calls.append(len(subsets))
        return original(state, subsets)

    monkeypatch.setattr(_NodeState, "_ridge_fits", counting)
    return calls


class TestStackedPaths:
    """Each stacked item equals its standalone computation, bit for bit.

    ``node_data`` stays at n <= 40 and k <= 6, inside one block of the
    default :data:`~repro.core.tree.linear.STACK_BLOCK`; these cases reach
    the shapes it never does.  Each case runs with X in every layout of
    :data:`LAYOUTS`: the stacks gather from the state's C-ordered rows,
    and must reduce each column as the F-ordered ``X[:, cols]`` of a
    standalone fit does, whatever layout X arrives in.
    """

    # (n, k): m = 1 (k = 2), pairwise-summation boundaries (8, 128 rows),
    # steps in two blocks (90 x 20), three (500 x 12), four (300 x 20) and
    # blocks of one (1500 x 20: a 19-column subset is over half a block).
    SHAPES = [(3, 2), (8, 2), (129, 2), (9, 3), (13, 6), (200, 6),
              (90, 20), (300, 20), (500, 12), (1500, 20)]

    @in_each_layout("n, k", SHAPES)
    def test_drop_one_fits_match_standalone_fits(self, n, k, layout, stacked_calls):
        X, y = counter_node(n, k, seed=n * 100 + k)
        X = laid_out(X, layout)
        state = _NodeState(X, y, 1e-4)
        indices = tuple(range(k))
        stacked = state.drop_one_fits(indices)
        assert stacked_calls == [k]  # one stacked step of every subset
        for drop, fit in enumerate(stacked):
            subset = indices[:drop] + indices[drop + 1:]
            assert fit_bits(fit) == fit_bits(state.fit(subset))
            assert fit_bits(fit) == reference_fit_bits(X, y, subset, 1e-4)

    @in_each_layout("block", [1, 7, 100])
    def test_any_block_size_gives_the_same_bits(self, block, layout, monkeypatch):
        X, y = counter_node(40, 8, seed=block)
        X = laid_out(X, layout)
        indices = tuple(range(8))
        expected = [fit_bits(f) for f in _NodeState(X, y, 1e-4).drop_one_fits(indices)]
        monkeypatch.setattr(linear, "STACK_BLOCK", block)
        state = _NodeState(X, y, 1e-4)
        assert [fit_bits(f) for f in state.drop_one_fits(indices)] == expected
        state.correlate([(i, j) for i in indices for j in (None, *indices) if i != j])
        for (i, j), value in state._correlations.items():
            b = y if j is None else X[:, j]
            assert float_bits(value) == float_bits(np.corrcoef(X[:, i], b)[0, 1])

    @in_each_layout("n", [2, 5, 13, 129, 1500])
    def test_batch_of_one_matches_the_reference(self, n, layout, stacked_calls):
        X, y = counter_node(n, 6, seed=n)
        X = laid_out(X, layout)
        state = _NodeState(X, y, 1e-4)
        for size in range(1, min(6, n - 1) + 1):
            subset = tuple(range(6 - size, 6))
            assert fit_bits(state.fit(subset)) == reference_fit_bits(X, y, subset, 1e-4)
        assert set(stacked_calls) == {1}

    @in_each_layout("fallback", ["ridge0", "nonnegative", "constant", "saturated"])
    def test_fallbacks_fit_each_subset_on_its_own(
        self, fallback, layout, stacked_calls
    ):
        n = 4 if fallback == "saturated" else 60
        X, y = counter_node(n, 6, seed=7)
        ridge, nonnegative = 1e-4, ()
        if fallback == "ridge0":
            ridge = 0.0
        elif fallback == "nonnegative":
            nonnegative = (2,)
        elif fallback == "constant":
            X[:, 3] = 1.5
        X = laid_out(X, layout)
        state = _NodeState(X, y, ridge, nonnegative)
        indices = tuple(range(6))  # saturated: k - 1 = 5 > n - 1 = 3
        for drop, fit in enumerate(state.drop_one_fits(indices)):
            subset = indices[:drop] + indices[drop + 1:]
            assert fit_bits(fit) == reference_fit_bits(X, y, subset, ridge, nonnegative)
        assert all(calls == 1 for calls in stacked_calls)

    # One (q, q) Gram of all the centred rows agrees with np.corrcoef's
    # per-pair products for a handful of columns, but not from about a
    # dozen: k = 12 and 20 are what catch it.
    @in_each_layout("n, k", [(2, 3), (3, 4), (8, 12), (13, 20), (129, 12), (1500, 20)])
    def test_batched_correlations_match_corrcoef(self, n, k, layout):
        X, y = counter_node(n, k, seed=k)
        X[:, 1] = 3.0  # constant: the ptp guard answers 0.0
        X = laid_out(X, layout)
        state = _NodeState(X, y)
        keys = (None, *range(k))
        pairs = [(i, j) for i in keys for j in keys if i != j]
        state.correlate(pairs)  # both argument orders of every pair, one batch
        columns = {None: y, **{j: X[:, j] for j in range(k)}}
        for i, j in pairs:
            a, b = columns[i], columns[j]
            expected = (
                0.0 if min(np.ptp(a), np.ptp(b)) <= 1e-15 else np.corrcoef(a, b)[0, 1]
            )
            assert float_bits(state._correlations[i, j]) == float_bits(expected)

    @in_each_layout("n, k", [(90, 20), (1500, 20)])
    def test_large_nodes_match_reference(self, n, k, layout):
        X, y = counter_node(n, k, seed=3)
        X = laid_out(X, layout)
        names = tuple(f"a{j}" for j in range(k))
        for ridge in (0.0, 1e-4):
            assert_pipeline_matches(X, y, list(range(k)), names, ridge, (), 0.95)


class TestSharedState:
    def test_state_for_another_solver_is_rejected(self):
        X, y = np.arange(12.0).reshape(6, 2), np.arange(6.0)
        state = _NodeState(X, y, 1e-4, (1,))
        with pytest.raises(ConfigError):
            fit_linear_model(X, y, [0, 1], ("a", "b"), 0.0, (1,), state=state)
        with pytest.raises(ConfigError):
            fit_linear_model(X, y, [0, 1], ("a", "b"), 1e-4, (), state=state)
        model = fit_linear_model(X, y, [0, 1], ("a", "b"), 1e-4, (1,), state=state)
        with pytest.raises(ConfigError):
            simplify_model(model, X, y, ("a", "b"), 1e-4, state=state)
        with pytest.raises(ConfigError):
            resolve_opposed_pairs(model, X, y, ("a", "b"), state=state)

    def test_rows_are_c_ordered_for_every_input_layout(self):
        X, y = counter_node(30, 5, seed=1)
        for layout in LAYOUTS:
            rows = _NodeState(laid_out(X, layout), y).rows
            assert rows.flags.c_contiguous
            assert np.array_equal(rows, np.vstack([X.T, y]))
