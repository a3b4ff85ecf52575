"""Layer 1 of the static model verifier: structural checks.

A one-tree :class:`~repro.serve.compiled.CompiledArena` is trusted IR
for the serving stack — routing indexes arrays with whatever the
``left`` / ``right`` columns contain, so a corrupt arena does not
crash, it *misroutes silently*.  This module proves the arena is a well-formed
binary tree before anything downstream reasons about its semantics:

* ``VERIFY001`` — arena well-formedness: array lengths agree, split
  features and child/term indices are in range, ``term_offset`` is a
  monotone CSR ramp, parents mirror children, ``max_depth`` does not
  understate the real depth (routing iterates exactly ``max_depth``
  times, so an understated bound strands rows mid-tree).
* ``VERIFY002`` — graph shape: exactly one root, every non-root node
  has exactly one parent edge, no cycles, no orphans unreachable from
  the root.
* ``VERIFY003`` — leaf-id bijection: reachable leaves carry the paper's
  ``LM1..LMk`` numbering exactly once each; interior nodes carry 0.
* ``VERIFY004`` — finiteness: split thresholds are finite (a NaN
  threshold routes every row right, silently), model intercepts and
  coefficients are finite, every reachable leaf carries a model, and
  smoothing weights are finite and non-negative.

All checks are pure array inspection — no predictions are run — and
each is hardened against the very corruption it reports, so a broken
arena yields diagnostics, never an exception.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Set, Tuple

import numpy as np

from repro.lint.diagnostics import Diagnostic, Severity

if TYPE_CHECKING:  # break the serve <-> verify import cycle
    from repro.serve.compiled import CompiledArena

__all__ = [
    "reachable_nodes",
    "verify_structure",
]


def _error(rule_id: str, message: str, location: str = "") -> Diagnostic:
    return Diagnostic(
        rule_id=rule_id, severity=Severity.ERROR,
        message=message, location=location,
    )


def _warning(rule_id: str, message: str, location: str = "") -> Diagnostic:
    return Diagnostic(
        rule_id=rule_id, severity=Severity.WARNING,
        message=message, location=location,
    )


def _node_location(compiled: CompiledArena, node: int) -> str:
    if 0 <= node < compiled.n_nodes and compiled.feature[node] < 0:
        return f"node {node} (leaf LM{int(compiled.leaf_id[node])})"
    return f"node {node}"


def reachable_nodes(compiled: CompiledArena) -> Set[int]:
    """Node indices reachable from the root by valid child edges.

    Follows only in-range child pointers and never revisits a node, so
    it terminates on any arena, cyclic or not.
    """
    n = compiled.n_nodes
    if n == 0:
        return set()
    seen: Set[int] = set()
    stack = [0]
    while stack:
        node = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        if compiled.feature[node] >= 0:
            for child in (int(compiled.left[node]), int(compiled.right[node])):
                if 0 <= child < n and child not in seen:
                    stack.append(child)
    return seen


def _check_arena(compiled: CompiledArena) -> List[Diagnostic]:
    """VERIFY001: shapes, index ranges, CSR layout, parents, depth."""
    findings: List[Diagnostic] = []
    n = compiled.n_nodes
    if n == 0:
        findings.append(_error("VERIFY001", "arena has no nodes"))
        return findings
    per_node = {
        "threshold": compiled.threshold,
        "left": compiled.left,
        "right": compiled.right,
        "parent": compiled.parent,
        "leaf_id": compiled.leaf_id,
        "n_instances": compiled.n_instances,
        "has_model": compiled.has_model,
        "intercept": compiled.intercept,
    }
    for name, array in per_node.items():
        if array.shape[0] != n:
            findings.append(_error(
                "VERIFY001",
                f"array {name!r} has length {array.shape[0]}, "
                f"expected {n} (one entry per node)",
            ))
    offsets = compiled.term_offset
    if offsets.shape[0] != n + 1:
        findings.append(_error(
            "VERIFY001",
            f"term_offset has length {offsets.shape[0]}, expected {n + 1}",
        ))
    else:
        if offsets[0] != 0:
            findings.append(_error(
                "VERIFY001",
                f"term_offset must start at 0, starts at {int(offsets[0])}",
            ))
        if np.any(np.diff(offsets) < 0):
            at = int(np.flatnonzero(np.diff(offsets) < 0)[0])
            findings.append(_error(
                "VERIFY001",
                "term_offset is not monotone non-decreasing "
                f"(decreases at node {at})",
            ))
        n_terms = compiled.term_feature.shape[0]
        if int(offsets[-1]) != n_terms:
            findings.append(_error(
                "VERIFY001",
                f"term_offset ends at {int(offsets[-1])} but there are "
                f"{n_terms} term entries",
            ))
    if compiled.term_coefficient.shape[0] != compiled.term_feature.shape[0]:
        findings.append(_error(
            "VERIFY001",
            f"term_coefficient has {compiled.term_coefficient.shape[0]} "
            f"entries but term_feature has {compiled.term_feature.shape[0]}",
        ))
    if findings:
        # Shape damage makes per-node indexing unsafe; stop here.
        return findings

    bad_term = (compiled.term_feature < 0) | (
        compiled.term_feature >= compiled.n_features
    )
    for position in np.flatnonzero(bad_term):
        findings.append(_error(
            "VERIFY001",
            f"model term {int(position)} references feature "
            f"{int(compiled.term_feature[position])}, out of range for "
            f"{compiled.n_features} features",
        ))
    is_split = compiled.feature >= 0
    bad_feature = is_split & (compiled.feature >= compiled.n_features)
    for node in np.flatnonzero(bad_feature):
        findings.append(_error(
            "VERIFY001",
            f"split tests feature {int(compiled.feature[node])}, out of "
            f"range for {compiled.n_features} features",
            _node_location(compiled, int(node)),
        ))
    for node in np.flatnonzero(is_split):
        for side in ("left", "right"):
            child = int(getattr(compiled, side)[node])
            if child >= n or child < -1:
                findings.append(_error(
                    "VERIFY001",
                    f"{side} child index {child} is out of range for "
                    f"{n} nodes",
                    _node_location(compiled, int(node)),
                ))
            elif child == int(node):
                findings.append(_error(
                    "VERIFY001",
                    f"{side} child points back at the node itself",
                    _node_location(compiled, int(node)),
                ))
    for node in np.flatnonzero(~is_split):
        if int(compiled.left[node]) != -1 or int(compiled.right[node]) != -1:
            findings.append(_error(
                "VERIFY001",
                "leaf carries child pointers "
                f"(left={int(compiled.left[node])}, "
                f"right={int(compiled.right[node])})",
                _node_location(compiled, int(node)),
            ))
    # Parent pointers must mirror the child edges (smoothing walks them).
    for node in np.flatnonzero(is_split):
        for side in ("left", "right"):
            child = int(getattr(compiled, side)[node])
            if 0 <= child < n and int(compiled.parent[child]) != int(node):
                findings.append(_error(
                    "VERIFY001",
                    f"parent[{child}] = {int(compiled.parent[child])} but "
                    f"node {int(node)} lists it as its {side} child",
                ))
    if int(compiled.parent[0]) != -1:
        findings.append(_error(
            "VERIFY001",
            f"root node 0 has parent {int(compiled.parent[0])}, expected -1",
        ))
    depth = _actual_depth(compiled)
    if depth > compiled.max_depth:
        findings.append(_error(
            "VERIFY001",
            f"max_depth is {compiled.max_depth} but a root-to-leaf path of "
            f"depth {depth} exists; routing stops after max_depth levels "
            "and would strand rows at an interior node",
        ))
    return findings


def _actual_depth(compiled: CompiledArena) -> int:
    """Longest root-to-node edge count over valid edges (cycle-safe)."""
    n = compiled.n_nodes
    depth = 0
    seen: Set[int] = set()
    stack: List[Tuple[int, int]] = [(0, 0)]
    while stack:
        node, d = stack.pop()
        if node in seen:
            continue
        seen.add(node)
        depth = max(depth, d)
        if compiled.feature[node] >= 0:
            for child in (int(compiled.left[node]), int(compiled.right[node])):
                if 0 <= child < n and child not in seen:
                    stack.append((child, d + 1))
    return depth


def _check_graph(compiled: CompiledArena) -> List[Diagnostic]:
    """VERIFY002: single-parent edges, acyclicity, full reachability."""
    findings: List[Diagnostic] = []
    n = compiled.n_nodes
    in_degree = np.zeros(n, dtype=np.int64)
    for node in np.flatnonzero(compiled.feature >= 0):
        for child in (int(compiled.left[node]), int(compiled.right[node])):
            if 0 <= child < n:
                in_degree[child] += 1
    if in_degree[0] > 0:
        findings.append(_error(
            "VERIFY002",
            f"root node 0 is listed as a child of another node "
            f"({int(in_degree[0])} incoming edge(s)) — the arena has a "
            "cycle or a second entry point",
        ))
    for node in np.flatnonzero(in_degree > 1):
        if node == 0:
            continue
        findings.append(_error(
            "VERIFY002",
            f"node has {int(in_degree[node])} parents; the arena is a DAG "
            "or cyclic, not a tree",
            _node_location(compiled, int(node)),
        ))
    reached = reachable_nodes(compiled)
    for node in range(n):
        if node not in reached:
            findings.append(_error(
                "VERIFY002",
                "node is unreachable from the root (orphaned)",
                _node_location(compiled, int(node)),
            ))
    return findings


def _check_leaf_ids(compiled: CompiledArena) -> List[Diagnostic]:
    """VERIFY003: reachable leaves number LM1..LMk exactly once each."""
    findings: List[Diagnostic] = []
    reached = sorted(reachable_nodes(compiled))
    leaves = [n for n in reached if compiled.feature[n] < 0]
    for node in reached:
        if compiled.feature[node] >= 0 and int(compiled.leaf_id[node]) != 0:
            findings.append(_error(
                "VERIFY003",
                f"interior node carries leaf id {int(compiled.leaf_id[node])}"
                " (must be 0)",
                _node_location(compiled, node),
            ))
    ids = [int(compiled.leaf_id[n]) for n in leaves]
    expected = list(range(1, len(leaves) + 1))
    if sorted(ids) != expected:
        findings.append(_error(
            "VERIFY003",
            f"reachable leaf ids {sorted(ids)} are not the bijection "
            f"LM1..LM{len(leaves)}",
        ))
    return findings


def _check_finiteness(compiled: CompiledArena) -> List[Diagnostic]:
    """VERIFY004: thresholds, models, and weights are finite numbers."""
    findings: List[Diagnostic] = []
    is_split = compiled.feature >= 0
    for node in np.flatnonzero(is_split):
        t = compiled.threshold[node]
        if not np.isfinite(t):
            findings.append(_error(
                "VERIFY004",
                f"split threshold is {t!r}; NaN comparisons are false, so "
                "every row would silently route right",
                _node_location(compiled, int(node)),
            ))
    for node in np.flatnonzero(compiled.has_model):
        if not np.isfinite(compiled.intercept[node]):
            findings.append(_error(
                "VERIFY004",
                f"model intercept is {compiled.intercept[node]!r}",
                _node_location(compiled, int(node)),
            ))
        start = int(compiled.term_offset[node])
        stop = int(compiled.term_offset[node + 1])
        for position in range(start, stop):
            c = compiled.term_coefficient[position]
            if not np.isfinite(c):
                findings.append(_error(
                    "VERIFY004",
                    f"model coefficient on feature "
                    f"{int(compiled.term_feature[position])} is {c!r}",
                    _node_location(compiled, int(node)),
                ))
    for node in sorted(reachable_nodes(compiled)):
        if compiled.feature[node] < 0 and not compiled.has_model[node]:
            findings.append(_error(
                "VERIFY004",
                "reachable leaf carries no linear model; prediction "
                "would raise at serve time",
                _node_location(compiled, node),
            ))
        n_inst = compiled.n_instances[node]
        if not np.isfinite(n_inst) or n_inst < 0:
            findings.append(_error(
                "VERIFY004",
                f"n_instances is {n_inst!r}; smoothing weights must be "
                "finite and non-negative",
                _node_location(compiled, node),
            ))
        elif n_inst == 0 and compiled.feature[node] < 0:
            findings.append(_warning(
                "VERIFY004",
                "leaf has n_instances == 0; its smoothed prediction "
                "collapses entirely onto ancestor models",
                _node_location(compiled, node),
            ))
    return findings


def verify_structure(compiled: CompiledArena) -> List[Diagnostic]:
    """Run all layer-1 checks; empty result means structurally sound.

    ``VERIFY001`` findings short-circuit the graph-level checks — when
    array shapes or index ranges are broken, traversal-based reasoning
    about the same arrays would report noise on top of the real defect.
    """
    findings = _check_arena(compiled)
    if any(d.rule_id == "VERIFY001" for d in findings):
        return findings
    findings.extend(_check_graph(compiled))
    findings.extend(_check_leaf_ids(compiled))
    findings.extend(_check_finiteness(compiled))
    return findings
