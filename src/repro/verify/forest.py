"""Static verification of forests: the forest half of ``verify_model``.

A forest artifact can lie in more ways than a single tree: the arena's
offsets can disagree with its trees, leaf columns can collide or
dangle, and a refinement pass can ship weight vectors that no longer
match the ensemble they were fitted on.  :func:`verify_forest` runs the
full single-tree verifier over every member, with findings located
``tree[i]``, then checks the multi-tree arena and audits any attached
refined weights.  Callers reach it through
:func:`repro.verify.verify_model`, which accepts trees and forests.

The forest findings carry the FOREST00x ids; the lint family
(:mod:`repro.lint.forest_rules`) reports these same findings over a
registry blob, so an operator sees one vocabulary whether the problem
surfaced at publish time or in a registry audit:

=========  ========  ====================================================
id         severity  meaning
=========  ========  ====================================================
FOREST002  ERROR     arena offsets inconsistent with the member trees
FOREST003  ERROR     refined weights/active length != total leaf count,
                     or every refined leaf pruned
FOREST004  ERROR     refined weights contain non-finite values
FOREST005  WARNING   a tree contributes no active leaves (dead tree)
FOREST006  WARNING   single-tree forest (bagging without aggregation)
=========  ========  ====================================================

Forests are **uncertified**: the interval certificate machinery remains
a single-tree feature, so ``certificate`` is always ``None`` here and
drift monitoring for forests runs without a certified output bound.
"""

from __future__ import annotations

import dataclasses
from typing import TYPE_CHECKING, List

import numpy as np

from repro.errors import NotFittedError, ReproError
from repro.lint.diagnostics import Diagnostic, Severity
from repro.verify.runner import VerificationResult, verify_tree

if TYPE_CHECKING:  # serve <-> verify stays a runtime-lazy edge
    from repro.baselines.bagging import BaggedM5
    from repro.serve.compiled import CompiledArena

__all__ = ["verify_forest"]


def _structural(compiled: "CompiledArena") -> List[Diagnostic]:
    """Arena-level checks no single-tree verifier can express."""
    findings: List[Diagnostic] = []

    def error(rule_id: str, message: str) -> None:
        findings.append(Diagnostic(
            rule_id=rule_id, severity=Severity.ERROR, message=message,
        ))

    offsets = compiled.tree_offset
    leaves = compiled.leaf_offset
    if offsets.shape[0] != compiled.n_trees + 1 or offsets[0] != 0:
        error("FOREST002", (
            f"tree_offset has shape {offsets.shape} with first entry "
            f"{offsets[0] if offsets.size else 'none'}; expected "
            f"{compiled.n_trees + 1} entries starting at 0"
        ))
        return findings
    if np.any(np.diff(offsets) <= 0):
        error("FOREST002", "tree_offset is not strictly increasing")
    if int(offsets[-1]) != compiled.n_nodes:
        error("FOREST002", (
            f"tree_offset ends at {int(offsets[-1])} but the arena has "
            f"{compiled.n_nodes} nodes"
        ))
    if leaves.shape[0] != compiled.n_trees + 1 or leaves[0] != 0:
        error("FOREST002", (
            f"leaf_offset has shape {leaves.shape}; expected "
            f"{compiled.n_trees + 1} entries starting at 0"
        ))
        return findings
    if np.any(np.diff(leaves) <= 0):
        error("FOREST002", "leaf_offset is not strictly increasing")
    if int(leaves[-1]) != compiled.n_leaves:
        error("FOREST002", (
            f"leaf_offset ends at {int(leaves[-1])} but the arena has "
            f"{compiled.n_leaves} leaf columns"
        ))
    # The leaf column <-> node maps must be mutually inverse bijections
    # over exactly the arena's leaf nodes.
    leaf_nodes = np.flatnonzero(compiled.feature < 0)
    columns = compiled.leaf_col[leaf_nodes]
    if (
        leaf_nodes.shape[0] != compiled.n_leaves
        or np.any(np.sort(columns) != np.arange(compiled.n_leaves))
        or np.any(compiled.leaf_node[columns] != leaf_nodes)
    ):
        error("FOREST002", (
            "leaf_col/leaf_node do not form a bijection over the "
            "arena's leaf nodes"
        ))
    if np.any(compiled.leaf_col[compiled.feature >= 0] != -1):
        error("FOREST002", "an interior node carries a leaf column")
    return findings


def _refined(forest: "BaggedM5", compiled: "CompiledArena") -> List[Diagnostic]:
    """Audit attached refinement weights against the arena."""
    refined = forest.refined_
    if refined is None:
        return []
    findings: List[Diagnostic] = []
    total = compiled.n_leaves
    if (
        refined.weights.shape[0] != total
        or refined.active.shape[0] != total
    ):
        findings.append(Diagnostic(
            rule_id="FOREST003", severity=Severity.ERROR,
            message=(
                f"refined weights carry {refined.weights.shape[0]} "
                f"entries and {refined.active.shape[0]} active flags "
                f"for {total} forest leaves"
            ),
        ))
        return findings
    live = refined.weights[refined.active]
    if not np.all(np.isfinite(live)):
        findings.append(Diagnostic(
            rule_id="FOREST004", severity=Severity.ERROR,
            message=(
                f"{int(np.count_nonzero(~np.isfinite(live)))} active "
                f"refined weight(s) are non-finite"
            ),
        ))
    if refined.n_active == 0:
        findings.append(Diagnostic(
            rule_id="FOREST003", severity=Severity.ERROR,
            message="every refined leaf is pruned; the forest predicts 0",
        ))
    for tree in range(compiled.n_trees):
        start, stop = int(compiled.leaf_offset[tree]), int(
            compiled.leaf_offset[tree + 1]
        )
        if not np.any(refined.active[start:stop]):
            findings.append(Diagnostic(
                rule_id="FOREST005", severity=Severity.WARNING,
                message=(
                    f"tree[{tree}] contributes no active leaves after "
                    f"refinement (dead tree)"
                ),
            ))
    return findings


def verify_forest(forest: "BaggedM5") -> VerificationResult:
    """Verify a fitted ensemble end to end.

    Per-member findings are the single-tree VERIFY family located
    ``tree[i]`` (a member that does not compile is a VERIFY001 there),
    arena-level defects FOREST002, and refinement defects FOREST003-005.
    ``certificate`` is always ``None`` — forests ship uncertified.
    """
    if not forest.estimators_:
        raise NotFittedError("cannot verify an unfitted forest")
    result = VerificationResult()
    for index, member in enumerate(forest.estimators_):
        prefix = f"tree[{index}]"
        for diagnostic in verify_tree(member, forest).diagnostics:
            location = (
                f"{prefix}:{diagnostic.location}"
                if diagnostic.location
                else prefix
            )
            result.diagnostics.append(
                dataclasses.replace(diagnostic, location=location)
            )
    try:
        compiled = forest.compiled_
    except ReproError as exc:
        # A member that does not compile already reported why.
        if not any(d.rule_id == "VERIFY001" for d in result.diagnostics):
            result.diagnostics.append(Diagnostic(
                rule_id="VERIFY001", severity=Severity.ERROR,
                message=f"forest does not compile: {exc}",
            ))
        return result
    structural = _structural(compiled)
    result.diagnostics.extend(structural)
    if not structural:
        result.diagnostics.extend(_refined(forest, compiled))
    if compiled.n_trees == 1:
        result.diagnostics.append(Diagnostic(
            rule_id="FOREST006", severity=Severity.WARNING,
            message=(
                "forest has a single tree; bagging adds cost without "
                "aggregation benefit"
            ),
        ))
    return result
