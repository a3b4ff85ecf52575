"""The benchmark's tracer still finds, and still sees, what a fit calls.

``perfbench/tracing.py`` replaces each ``PLAN`` entry at the name its
caller looks up: a module global or a class attribute.  If a refactor
drops one of those names, every traced benchmark run dies with
``AttributeError``.  If a name stays importable but the tree builder
stops calling it there, its spans silently read 0.  One small fit under
the real ``PLAN`` catches both.
"""

import numpy as np

from perfbench.tracing import PLAN, Tracer, _resolve_owner, summarize
from repro.core.tree import M5Prime
from repro.core.tree.builder import TreeBuilder
from repro.datasets.synthetic import figure1_dataset

NODE_MODEL_CALLS = (
    "select_uncorrelated", "fit_linear_model", "simplify_model",
    "resolve_opposed_pairs",
)
MIN_INSTANCES = 8
SD_FRACTION = 0.05


def test_plan_traces_every_split_search_and_node_model(monkeypatch):
    data = figure1_dataset(n=200, noise_sd=0.05, rng=5)
    node_targets = []
    original = TreeBuilder._fit_model

    def recording(builder, X, y, path_attributes, subtree_attributes):
        node_targets.append(y)
        return original(builder, X, y, path_attributes, subtree_attributes)

    monkeypatch.setattr(TreeBuilder, "_fit_model", recording)
    before = [
        (_resolve_owner(owner), attribute, getattr(_resolve_owner(owner), attribute))
        for owner, attribute, _ in PLAN
    ]
    tracer = Tracer().install(PLAN)
    try:
        M5Prime(min_instances=MIN_INSTANCES, sd_fraction=SD_FRACTION).fit(data)
    finally:
        tracer.uninstall()

    for target, attribute, value in before:
        assert getattr(target, attribute) is value, attribute
    summary = summarize(tracer.spans)

    def calls(name):
        return summary.get(f"core.tree.{name}", {}).get("calls", 0)

    assert calls("fit") == 1
    # A node searches for a split when it may still split (the builder's
    # pre-pruning test).
    global_sd = float(np.std(data.y))
    searches = sum(
        len(y) >= 2 * MIN_INSTANCES and float(np.std(y)) > SD_FRACTION * global_sd
        for y in node_targets
    )
    assert searches > 0
    assert calls("find_best_split") == searches
    for name in NODE_MODEL_CALLS:
        assert calls(name) == len(node_targets), name
