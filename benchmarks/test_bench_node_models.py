"""Node-model benchmarks: the production primitives vs their references.

Every tree node gets a linear model from four primitives in
:mod:`repro.core.tree.linear`: the collinearity filter, the fit, greedy
term dropping and opposed-pair resolution.  Production runs each call on
one node state that computes column ranges, target moments and
correlations once, and solves each greedy step's drop-one subsets and
the correlations as stacked batches; the ``reference_*`` functions in
:mod:`repro.conformance.oracle` recompute them for every refit, one
subset and one pair at a time.  Both fit the same recorded nodes: every
node of the quick-suite fits at min_instances 6 and 25, captured
untimed.  The gate asserts bit-identical selections and models and that
production is at least 3.0x faster — a ratio, so it holds on any
runner.  Pinned to one CPU of a 2-vCPU Xeon, the unbatched node state
measured x2.14-x3.02 over twelve runs (median x2.38) and the stacked
one x3.47-x5.14 over six (median x3.87).
"""

import struct
import time

import pytest

from repro.conformance.oracle import (
    reference_fit_linear_model,
    reference_resolve_opposed_pairs,
    reference_select_uncorrelated,
    reference_simplify_model,
)
from repro.core.tree import M5Prime
from repro.core.tree.builder import TreeBuilder
from repro.core.tree.linear import (
    fit_linear_model,
    resolve_opposed_pairs,
    select_uncorrelated,
    simplify_model,
)

MIN_INSTANCES = (6, 25)

#: (select, fit, simplify, resolve) per implementation.
PRIMITIVES = {
    "production": (
        select_uncorrelated, fit_linear_model, simplify_model, resolve_opposed_pairs,
    ),
    "reference": (
        reference_select_uncorrelated,
        reference_fit_linear_model,
        reference_simplify_model,
        reference_resolve_opposed_pairs,
    ),
}


@pytest.fixture(scope="module")
def node_inputs(bench_dataset):
    """Every node's model inputs from the quick-suite fits (untimed)."""
    nodes = []
    original = TreeBuilder._fit_model

    def recording(builder, X, y, path_attributes, subtree_attributes):
        nodes.append((
            X, y, sorted(path_attributes | subtree_attributes), builder._names,
            builder.ridge, builder._nonnegative_indices,
            builder.collinearity_threshold,
        ))
        return original(builder, X, y, path_attributes, subtree_attributes)

    TreeBuilder._fit_model = recording
    try:
        for min_instances in MIN_INSTANCES:
            M5Prime(min_instances=min_instances).fit(bench_dataset)
    finally:
        TreeBuilder._fit_model = original
    return nodes


def fit_nodes(implementation, nodes):
    """The builder's default node pipeline, per node: (kept, model)."""
    select, fit, simplify, resolve = PRIMITIVES[implementation]
    out = []
    for X, y, candidates, names, ridge, nonnegative, threshold in nodes:
        kept = select(X, y, candidates, threshold)
        model = fit(X, y, kept, names, ridge, nonnegative)
        model = simplify(model, X, y, names, ridge, nonnegative)
        out.append((kept, resolve(model, X, y, names, ridge, nonnegative=nonnegative)))
    return out


def model_bits(model):
    pack = struct.Struct("<d").pack
    return (
        pack(model.intercept), model.indices, model.names,
        tuple(pack(c) for c in model.coefficients),
        model.n_training, pack(model.training_error),
    )


@pytest.mark.parametrize("implementation", sorted(PRIMITIVES))
def test_node_models(benchmark, implementation, node_inputs):
    results = benchmark.pedantic(
        fit_nodes, args=(implementation, node_inputs), rounds=3, iterations=1
    )
    assert len(results) == len(node_inputs)


def test_node_model_speedup(node_inputs):
    """Bit-identical to the references, and at least 3.0x faster."""
    timings = {implementation: [] for implementation in PRIMITIVES}
    outputs = {}
    for _ in range(3):
        for implementation in PRIMITIVES:
            start = time.perf_counter()
            outputs[implementation] = fit_nodes(implementation, node_inputs)
            timings[implementation].append(time.perf_counter() - start)
    for (kept, model), (ref_kept, ref_model) in zip(
        outputs["production"], outputs["reference"]
    ):
        assert kept == ref_kept
        assert model_bits(model) == model_bits(ref_model)
    fast_s = min(timings["production"])
    reference_s = min(timings["reference"])
    speedup = reference_s / fast_s
    print(
        f"\nnode models for {len(node_inputs)} nodes: production {fast_s:.3f}s, "
        f"reference {reference_s:.3f}s, x{speedup:.2f}"
    )
    assert speedup >= 3.0, f"node-model speedup x{speedup:.2f} below the 3.0x bar"
