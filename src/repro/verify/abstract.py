"""Layer 2 of the static model verifier: interval abstract interpretation.

With the arena structurally sound (layer 1, :mod:`repro.verify.structural`),
this layer reasons about what the tree *computes* — still without running
a single prediction.  One :class:`~repro.verify.intervals.Box` per path
is propagated from the root: the left branch of ``x[f] <= t`` clamps the
feature's upper bound to ``t``, the right branch raises the (strict)
lower bound.  From the per-leaf boxes the analysis derives:

* ``VERIFY005`` — dead branches: a path whose box is empty, or whose box
  violates a Table I counter invariant everywhere (no physically
  possible input reaches the leaf).  Only the topmost dead node is
  reported; its subtree is implied.
* ``VERIFY006`` — domain partition: a split child that does not exist
  (rows routed into nothing), or two live leaves whose feasible regions
  overlap (the tree is ambiguous about which model answers).
* ``VERIFY007`` — a leaf-model coefficient on a feature the path pins to
  a single value: the term is a constant in disguise, so the
  interpretability story ("this counter drives CPI here") is false.
* ``VERIFY008`` — unbounded predictions: a certified output interval
  with a non-finite endpoint, an ancestor model missing on the smoothing
  chain, or (as a warning) no ``feature_ranges_`` to bound anything with.

Per-leaf output intervals come from closed-interval arithmetic over the
leaf linear model, blended leaf-to-root through the same smoothing
recurrence the compiled evaluator runs, then widened by
:data:`~repro.verify.intervals.OUTPUT_SLACK` — these become the
:class:`~repro.verify.certificate.VerificationCertificate`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.counters.invariants import (
    METRIC_INVARIANTS,
    Invariant,
    _EPS,
    applicable_invariants,
)
from repro.lint.diagnostics import Diagnostic, Severity

if TYPE_CHECKING:  # break the serve <-> verify import cycle
    from repro.serve.compiled import CompiledArena
from repro.verify.intervals import (
    Box,
    Interval,
    OUTPUT_SLACK,
    full_box,
    linear_model_interval,
    smooth_interval,
    widen,
)

__all__ = ["AbstractAnalysis", "LeafAnalysis", "analyze"]


@dataclass(frozen=True)
class LeafAnalysis:
    """One live leaf: its feasible region and certified output interval.

    Attributes:
        node: Arena node index of the leaf.
        leaf_id: The paper's LM number.
        box: Feasible per-feature box (path constraints ∩ domain).
        raw: Output interval of the leaf model alone (pre-smoothing,
            pre-widening) — useful when reading the leaf equation.
        output: The certified interval: smoothed (when the model
            smooths) and widened by the float-safety slack.  Every
            runtime prediction routed to this leaf lies inside it.
    """

    node: int
    leaf_id: int
    box: Box
    raw: Interval
    output: Interval


@dataclass
class AbstractAnalysis:
    """The complete layer-2 result."""

    diagnostics: List[Diagnostic] = field(default_factory=list)
    leaves: List[LeafAnalysis] = field(default_factory=list)
    #: Topmost dead node indices (their subtrees are implied dead).
    dead_nodes: List[int] = field(default_factory=list)
    #: Whether a feature-range domain was available to bound anything.
    has_ranges: bool = False


def _feature_name(attributes: Sequence[str], index: int) -> str:
    if 0 <= index < len(attributes):
        return attributes[index]
    return f"feature {index}"


def _infeasible_invariant(
    box: Box,
    invariants: Sequence[Invariant],
    index_of: Dict[str, int],
) -> Optional[Invariant]:
    """The first invariant no point of the box can satisfy, if any.

    Mirrors :func:`repro.counters.invariants.check_dataset`: a point
    violates ``sum(lhs) <= sum(rhs) + bound`` only beyond the
    scale-aware tolerance, so a box is dead only when even its most
    favorable corner (lhs at its minimum, rhs at its maximum) violates.
    """
    for inv in invariants:
        lhs_min = sum(float(box.low[index_of[n]]) for n in inv.lhs)
        if inv.kind == "positive":
            lhs_max = sum(float(box.high[index_of[n]]) for n in inv.lhs)
            if lhs_max <= 0:
                return inv
            continue
        rhs_max = sum(float(box.high[index_of[n]]) for n in inv.rhs)
        rhs_max += inv.bound
        tolerance = _EPS * max(1.0, abs(rhs_max))
        if lhs_min > rhs_max + tolerance:
            return inv
    return None


def _dead_reason(
    box: Box,
    attributes: Sequence[str],
    invariants: Sequence[Invariant],
    index_of: Dict[str, int],
) -> Optional[str]:
    """Why no valid input reaches this box, or ``None`` if reachable."""
    empty = next(box.empty_features(), None)
    if empty is not None:
        low, high = box.low[empty], box.high[empty]
        bracket = "(" if box.low_strict[empty] else "["
        return (
            f"path constraints leave {_feature_name(attributes, empty)} "
            f"the empty interval {bracket}{low:g}, {high:g}]"
        )
    inv = _infeasible_invariant(box, invariants, index_of)
    if inv is not None:
        return (
            f"every point of the region violates counter invariant "
            f"{inv.name!r} ({inv.message})"
        )
    return None


def _output_interval(
    compiled: CompiledArena,
    leaf: int,
    box: Box,
    smoothing_k: Optional[float],
) -> Tuple[Interval, Interval, Optional[str]]:
    """``(raw, final, error)`` output bounds for one leaf over its box.

    Replays the exact ancestor chain
    :meth:`~repro.serve.compiled.CompiledArena.predict_trees` walks,
    lifted to intervals; ``error`` is a message when the chain cannot
    be bounded (ancestor without a model on the smoothing path).
    """
    def model_interval(node: int) -> Interval:
        start = int(compiled.term_offset[node])
        stop = int(compiled.term_offset[node + 1])
        return linear_model_interval(
            float(compiled.intercept[node]),
            [int(f) for f in compiled.term_feature[start:stop]],
            [float(c) for c in compiled.term_coefficient[start:stop]],
            box,
        )

    raw = model_interval(leaf)
    current = raw
    if smoothing_k is not None:
        below = leaf
        ancestor = int(compiled.parent[below])
        while ancestor >= 0:
            if not compiled.has_model[ancestor]:
                return raw, current, (
                    f"ancestor node {ancestor} on the smoothing chain "
                    "carries no model; smoothed predictions cannot be "
                    "bounded (and would raise at serve time)"
                )
            current = smooth_interval(
                current,
                model_interval(ancestor),
                float(compiled.n_instances[below]),
                smoothing_k,
            )
            below = ancestor
            ancestor = int(compiled.parent[below])
    return raw, current, None


def analyze(
    compiled: CompiledArena,
    attributes: Sequence[str],
    feature_ranges: Optional[Sequence[Tuple[float, float]]] = None,
    smoothing_k: Optional[float] = None,
    invariants: Sequence[Invariant] = METRIC_INVARIANTS,
    slack: float = OUTPUT_SLACK,
) -> AbstractAnalysis:
    """Propagate boxes down every path and collect semantic findings.

    Args:
        compiled: A layer-1-clean arena (caller gates on
            :func:`~repro.verify.structural.verify_structure`).
        attributes: Training attribute names, for messages and for
            matching counter invariants to feature columns.
        feature_ranges: Per-feature ``(min, max)`` training domain; when
            ``None`` the domain is all of R^p, dead-branch detection
            loses the range/invariant signal, and no output bounds are
            certified (a single VERIFY008 warning says so).
        smoothing_k: The smoothing constant the model serves with, or
            ``None`` for raw leaf predictions.
        invariants: The counter-invariant table (Table I metric
            relations by default); only invariants whose columns all
            appear in ``attributes`` apply.
        slack: Relative widening applied to certified output intervals.
    """
    analysis = AbstractAnalysis(has_ranges=feature_ranges is not None)
    live = applicable_invariants(invariants, tuple(attributes))
    index_of = {name: i for i, name in enumerate(attributes)}
    domain = full_box(compiled.n_features, feature_ranges)

    # Depth-first box propagation.  Dead nodes prune their subtree: one
    # VERIFY005 per topmost dead node, exactly like a compiler reports
    # the head of an unreachable region, not every statement in it.
    stack: List[Tuple[int, Box]] = [(0, domain)]
    leaf_boxes: List[Tuple[int, Box]] = []
    while stack:
        node, box = stack.pop()
        reason = _dead_reason(box, attributes, live, index_of)
        if reason is not None:
            analysis.dead_nodes.append(node)
            location = (
                f"node {node}" if compiled.feature[node] >= 0
                else f"node {node} (leaf LM{int(compiled.leaf_id[node])})"
            )
            analysis.diagnostics.append(Diagnostic(
                rule_id="VERIFY005", severity=Severity.ERROR,
                message=f"dead branch: {reason}", location=location,
            ))
            continue
        if compiled.feature[node] < 0:
            leaf_boxes.append((node, box))
            continue
        f = int(compiled.feature[node])
        t = float(compiled.threshold[node])
        for side, child, branch_box in (
            ("left", int(compiled.left[node]), box.restrict_le(f, t)),
            ("right", int(compiled.right[node]), box.restrict_gt(f, t)),
        ):
            if child < 0:
                relation = "<=" if side == "left" else ">"
                analysis.diagnostics.append(Diagnostic(
                    rule_id="VERIFY006", severity=Severity.ERROR,
                    message=(
                        f"uncovered region: rows with "
                        f"{_feature_name(attributes, f)} {relation} {t:g} "
                        "route into a missing child"
                    ),
                    location=f"node {node}",
                ))
                continue
            stack.append((child, branch_box))

    # VERIFY006 (overlap): live leaves must tile the domain disjointly.
    leaf_boxes.sort(key=lambda pair: pair[0])
    for i, (node_a, box_a) in enumerate(leaf_boxes):
        for node_b, box_b in leaf_boxes[i + 1:]:
            if box_a.intersects(box_b):
                analysis.diagnostics.append(Diagnostic(
                    rule_id="VERIFY006", severity=Severity.ERROR,
                    message=(
                        f"feasible regions of leaf "
                        f"LM{int(compiled.leaf_id[node_a])} (node {node_a}) "
                        f"and leaf LM{int(compiled.leaf_id[node_b])} "
                        f"(node {node_b}) overlap; routing is ambiguous"
                    ),
                ))

    # VERIFY007: leaf-model terms on features the path has pinned.
    for node, box in leaf_boxes:
        start = int(compiled.term_offset[node])
        stop = int(compiled.term_offset[node + 1])
        for position in range(start, stop):
            f = int(compiled.term_feature[position])
            if box.is_point(f):
                analysis.diagnostics.append(Diagnostic(
                    rule_id="VERIFY007", severity=Severity.WARNING,
                    message=(
                        f"model term on {_feature_name(attributes, f)} "
                        f"whose feasible interval is the single point "
                        f"{float(box.low[f]):g}; the coefficient "
                        f"({float(compiled.term_coefficient[position]):g}) "
                        "is an intercept in disguise"
                    ),
                    location=(
                        f"node {node} (leaf LM{int(compiled.leaf_id[node])})"
                    ),
                ))

    # VERIFY008 + certified output intervals.
    if not analysis.has_ranges:
        analysis.diagnostics.append(Diagnostic(
            rule_id="VERIFY008", severity=Severity.WARNING,
            message=(
                "model records no feature_ranges_ (pre-range document); "
                "predictions cannot be statically bounded and no "
                "certificate can be issued — refit and republish"
            ),
        ))
    for node, box in leaf_boxes:
        raw, final, error = _output_interval(
            compiled, node, box, smoothing_k
        )
        location = f"node {node} (leaf LM{int(compiled.leaf_id[node])})"
        if error is not None:
            analysis.diagnostics.append(Diagnostic(
                rule_id="VERIFY008", severity=Severity.ERROR,
                message=error, location=location,
            ))
            continue
        output = widen(final, slack)
        if analysis.has_ranges and not (
            np.isfinite(output[0]) and np.isfinite(output[1])
        ):
            analysis.diagnostics.append(Diagnostic(
                rule_id="VERIFY008", severity=Severity.ERROR,
                message=(
                    f"certified output interval [{output[0]!r}, "
                    f"{output[1]!r}] is not finite despite a bounded "
                    "input domain"
                ),
                location=location,
            ))
            continue
        analysis.leaves.append(LeafAnalysis(
            node=node,
            leaf_id=int(compiled.leaf_id[node]),
            box=box,
            raw=raw,
            output=output,
        ))
    return analysis
