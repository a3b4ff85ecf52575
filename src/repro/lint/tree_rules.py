"""Tree rules: structural verification of a fitted or deserialized M5' tree.

The paper reads its micro-architectural conclusions straight off the
tree — split variables answer "what", leaf-model coefficients answer
"how much" — so a structurally broken tree silently produces wrong
explanations.  These rules walk every node of a fitted
:class:`~repro.core.tree.m5.M5Prime` and check the properties a correct
grow/prune/serialize pipeline guarantees.

Dead branches are not a tree rule: the verifier reports each maximal
dead subtree as VERIFY005 (:mod:`repro.lint.verify_rules`), against the
training domain and the Table I counter invariants as well as the
thresholds on its path.
"""

from __future__ import annotations

import math
from typing import Iterator, List, Tuple

import numpy as np

from repro.core.tree.m5 import M5Prime
from repro.core.tree.node import Node, SplitNode
from repro.lint.context import LintContext
from repro.lint.diagnostics import Severity
from repro.lint.registry import FAMILY_TREE, rule

Finding = Tuple[str, str]


def _split_location(node: SplitNode) -> str:
    return f"split {node.attribute_name} <= {node.threshold:.6g}"


def _node_location(node: Node) -> str:
    if node.is_leaf:
        return f"leaf LM{node.leaf_id}"
    assert isinstance(node, SplitNode)
    return _split_location(node)


@rule(
    "TREE001",
    FAMILY_TREE,
    Severity.ERROR,
    "split feature index within the model's attribute set",
)
def split_feature_in_range(ctx: LintContext) -> Iterator[Finding]:
    model = ctx.model
    assert model is not None and model.root_ is not None
    names = model.attributes_
    for node in model.root_.splits():
        if not 0 <= node.attribute_index < len(names):
            yield (
                f"split tests attribute index {node.attribute_index} but the "
                f"model has {len(names)} attributes",
                _split_location(node),
            )
        elif node.attribute_name != names[node.attribute_index]:
            yield (
                f"split names attribute {node.attribute_name!r} but index "
                f"{node.attribute_index} is {names[node.attribute_index]!r}",
                _split_location(node),
            )


@rule(
    "TREE003",
    FAMILY_TREE,
    Severity.WARNING,
    "every leaf holds at least min_instances training instances",
)
def under_populated_leaf(ctx: LintContext) -> Iterator[Finding]:
    model = ctx.model
    assert model is not None and model.root_ is not None
    for leaf in model.root_.leaves():
        if leaf is model.root_:
            continue  # a tiny training set legitimately yields one small leaf
        if leaf.n_instances < model.min_instances:
            yield (
                f"leaf holds {leaf.n_instances} instances, below "
                f"min_instances={model.min_instances}",
                _node_location(leaf),
            )


@rule(
    "TREE004",
    FAMILY_TREE,
    Severity.ERROR,
    "every node model exists with finite coefficients and a real population",
)
def non_finite_model(ctx: LintContext) -> Iterator[Finding]:
    model = ctx.model
    assert model is not None and model.root_ is not None
    for node in model.root_.iter_nodes():
        location = _node_location(node)
        linear = node.model
        if linear is None:
            yield ("node lacks a linear model", location)
            continue
        values = (linear.intercept,) + linear.coefficients
        if not all(math.isfinite(v) for v in values):
            yield ("linear model has non-finite coefficients", location)
        if linear.n_training <= 0:
            yield (
                f"linear model reports n_training={linear.n_training}",
                location,
            )
        if not math.isfinite(linear.training_error) or linear.training_error < 0:
            yield (
                f"linear model reports training_error="
                f"{linear.training_error!r}",
                location,
            )


@rule(
    "TREE005",
    FAMILY_TREE,
    Severity.WARNING,
    "leaf-model coefficients stay below the degeneracy bound",
)
def degenerate_coefficients(ctx: LintContext) -> Iterator[Finding]:
    model = ctx.model
    assert model is not None and model.root_ is not None
    bound = ctx.config.coefficient_bound
    for leaf in model.root_.leaves():
        linear = leaf.model
        if linear is None:
            continue  # TREE004 already reported it
        offenders = [
            f"{name}={coefficient:.3g}"
            for name, coefficient in zip(linear.names, linear.coefficients)
            if math.isfinite(coefficient) and abs(coefficient) > bound
        ]
        if math.isfinite(linear.intercept) and abs(linear.intercept) > bound:
            offenders.append(f"intercept={linear.intercept:.3g}")
        if offenders:
            yield (
                "degenerate coefficients (|value| > "
                f"{bound:g}): {', '.join(offenders)}",
                _node_location(leaf),
            )


@rule(
    "TREE006",
    FAMILY_TREE,
    Severity.WARNING,
    "split thresholds lie inside the recorded training feature range",
)
def threshold_outside_range(ctx: LintContext) -> Iterator[Finding]:
    model = ctx.model
    assert model is not None and model.root_ is not None
    ranges = model.feature_ranges_
    if ranges is None:
        return  # pre-range artifact: nothing recorded to check against
    for node in model.root_.splits():
        if not 0 <= node.attribute_index < len(ranges):
            continue  # TREE001 already reported it
        low, high = ranges[node.attribute_index]
        if not low <= node.threshold <= high:
            yield (
                f"threshold {node.threshold:.6g} lies outside the training "
                f"range [{low:.6g}, {high:.6g}] of "
                f"{node.attribute_name}",
                _split_location(node),
            )


def _probe_points(model: M5Prime, cap: int) -> np.ndarray:
    """Instances that exercise both sides of every split."""
    assert model.root_ is not None
    n_attributes = len(model.attributes_)
    if model.feature_ranges_ is not None:
        base = np.array(
            [(low + high) / 2.0 for low, high in model.feature_ranges_]
        )
    else:
        base = np.zeros(n_attributes)
    probes: List[np.ndarray] = [base]
    for node in model.root_.splits():
        if not 0 <= node.attribute_index < n_attributes:
            continue
        for value in (
            node.threshold,
            np.nextafter(node.threshold, np.inf),
        ):
            probe = base.copy()
            probe[node.attribute_index] = value
            probes.append(probe)
        if len(probes) >= cap:
            break
    return np.vstack(probes)


@rule(
    "TREE007",
    FAMILY_TREE,
    Severity.ERROR,
    "serialize -> load round trip preserves predictions within tolerance",
)
def roundtrip_drift(ctx: LintContext) -> Iterator[Finding]:
    model = ctx.model
    assert model is not None and model.root_ is not None
    if any(node.model is None for node in model.root_.iter_nodes()):
        return  # unserializable; TREE004 already reported it
    n_attributes = len(model.attributes_)
    if any(
        not 0 <= node.attribute_index < n_attributes
        for node in model.root_.splits()
    ):
        return  # routing would crash; TREE001 already reported it
    from repro.core.tree.serialize import model_from_dict, model_to_dict

    try:
        clone = model_from_dict(model_to_dict(model))
    except Exception as exc:  # noqa: BLE001 — any failure is the finding
        yield (f"model does not survive a serialize round trip: {exc}", "")
        return
    probes = _probe_points(model, ctx.config.max_probe_points)
    drift = float(
        np.max(np.abs(model.predict(probes) - clone.predict(probes)))
    )
    if not math.isfinite(drift) or drift > ctx.config.roundtrip_tol:
        yield (
            f"round-trip prediction drift {drift:.3g} exceeds tolerance "
            f"{ctx.config.roundtrip_tol:g}",
            "",
        )


@rule(
    "TREE008",
    FAMILY_TREE,
    Severity.WARNING,
    "every split's population equals the sum of its children's",
)
def population_consistency(ctx: LintContext) -> Iterator[Finding]:
    model = ctx.model
    assert model is not None and model.root_ is not None
    for node in model.root_.splits():
        total = node.left.n_instances + node.right.n_instances
        if node.n_instances != total:
            yield (
                f"split holds {node.n_instances} instances but its children "
                f"sum to {total}",
                _split_location(node),
            )


@rule(
    "TREE009",
    FAMILY_TREE,
    Severity.WARNING,
    "leaves are numbered LM1..LMk left to right",
)
def leaf_id_sequence(ctx: LintContext) -> Iterator[Finding]:
    model = ctx.model
    assert model is not None and model.root_ is not None
    expected = 1
    for leaf in model.root_.leaves():
        if leaf.leaf_id != expected:
            yield (
                f"leaf numbered LM{leaf.leaf_id}, expected LM{expected} "
                "in left-to-right order",
                _node_location(leaf),
            )
        expected += 1
