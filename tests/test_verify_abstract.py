"""Layer 2 of the static verifier: boxes, dead branches, output bounds."""

import copy

import numpy as np
import pytest

from repro.errors import ConfigError
from repro.lint.diagnostics import Severity
from repro.serve.compiled import CompiledArena
from repro.verify import (
    Box,
    analyze,
    full_box,
    linear_model_interval,
    smooth_interval,
    verify_arena,
    widen,
)


def _ids(diagnostics):
    return {d.rule_id for d in diagnostics}


def _error_ids(diagnostics):
    return {d.rule_id for d in diagnostics if d.severity is Severity.ERROR}


class TestBox:
    def test_restrict_le_closes_high(self):
        box = full_box(2, [(0.0, 1.0), (0.0, 1.0)])
        left = box.restrict_le(0, 0.4)
        assert left.interval(0) == (0.0, 0.4)
        assert left.interval(1) == (0.0, 1.0)

    def test_restrict_gt_sets_strict_low(self):
        box = full_box(1, [(0.0, 1.0)])
        right = box.restrict_gt(0, 0.4)
        assert right.interval(0) == (0.4, 1.0)
        assert right.low_strict[0]
        assert not right.is_empty

    def test_contradictory_path_is_empty(self):
        box = full_box(1, [(0.0, 1.0)])
        dead = box.restrict_le(0, 0.3).restrict_gt(0, 0.6)
        assert dead.is_empty
        assert list(dead.empty_features()) == [0]

    def test_point_from_strict_bound_is_empty(self):
        # x > 0.5 and x <= 0.5 leave the degenerate strict point.
        box = full_box(1, [(0.0, 1.0)])
        dead = box.restrict_gt(0, 0.5).restrict_le(0, 0.5)
        assert dead.is_empty

    def test_is_point_only_for_closed_degenerate(self):
        box = full_box(2, [(0.7, 0.7), (0.0, 1.0)])
        assert box.is_point(0)
        assert not box.is_point(1)

    def test_sibling_boxes_do_not_intersect(self):
        box = full_box(1, [(0.0, 1.0)])
        left = box.restrict_le(0, 0.5)
        right = box.restrict_gt(0, 0.5)
        # They share the boundary value 0.5, but the right side is
        # strict there, so the feasible sets are disjoint.
        assert not left.intersects(right)
        assert left.intersects(left.copy())

    def test_full_box_length_mismatch(self):
        with pytest.raises(ConfigError):
            full_box(3, [(0.0, 1.0)])


class TestIntervalArithmetic:
    def test_negative_coefficient_swaps_endpoints(self):
        box = full_box(1, [(2.0, 5.0)])
        low, high = linear_model_interval(1.0, [0], [-2.0], box)
        assert (low, high) == (1.0 - 10.0, 1.0 - 4.0)

    def test_zero_coefficient_on_infinite_domain(self):
        # 0 * inf is NaN in IEEE; the interval lift must treat the term
        # as contributing exactly nothing.
        box = full_box(1, None)
        low, high = linear_model_interval(3.0, [0], [0.0], box)
        assert (low, high) == (3.0, 3.0)

    def test_smooth_interval_blends_endpoints(self):
        blended = smooth_interval((0.0, 1.0), (2.0, 4.0), n_below=10, k=10)
        assert blended == (1.0, 2.5)

    def test_smooth_interval_rejects_zero_weights(self):
        with pytest.raises(ConfigError):
            smooth_interval((0.0, 1.0), (0.0, 1.0), n_below=0, k=0)

    def test_widen_is_outward_and_relative(self):
        low, high = widen((-100.0, 100.0), slack=1e-6)
        assert low < -100.0 < 100.0 < high
        assert high - 100.0 == pytest.approx(1e-4)


def _mini_arena(**overrides):
    """node0: split f0 <= 0.5; node1: leaf LM1; node2: leaf LM2 (term on f1)."""
    fields = dict(
        n_features=2,
        feature=np.array([0, -1, -1], dtype=np.int64),
        threshold=np.array([0.5, np.nan, np.nan]),
        left=np.array([1, -1, -1], dtype=np.int64),
        right=np.array([2, -1, -1], dtype=np.int64),
        parent=np.array([-1, 0, 0], dtype=np.int64),
        leaf_id=np.array([0, 1, 2], dtype=np.int64),
        n_instances=np.array([10, 5, 5], dtype=np.int64),
        has_model=np.array([True, True, True]),
        intercept=np.array([1.5, 1.0, 2.0]),
        term_offset=np.array([0, 0, 0, 1], dtype=np.int64),
        term_feature=np.array([1], dtype=np.int64),
        term_coefficient=np.array([3.0]),
        max_depth=1,
        n_trees=1,
        tree_offset=np.array([0, 3], dtype=np.int64),
        leaf_offset=np.array([0, 2], dtype=np.int64),
        leaf_col=np.array([-1, 0, 1], dtype=np.int64),
        leaf_node=np.array([1, 2], dtype=np.int64),
    )
    fields.update(overrides)
    return CompiledArena(**fields)


class TestAnalyzeMiniArena:
    ATTRS = ("a", "b")
    RANGES = [(0.0, 1.0), (0.0, 1.0)]

    def test_clean_analysis_certifies_both_leaves(self):
        analysis = analyze(_mini_arena(), self.ATTRS, self.RANGES)
        assert analysis.diagnostics == []
        assert [leaf.leaf_id for leaf in analysis.leaves] == [1, 2]
        lm2 = analysis.leaves[1]
        # raw = 2.0 + 3.0 * [0, 1]; widening only pads outward.
        assert lm2.raw == (2.0, 5.0)
        assert lm2.output[0] <= 2.0 and lm2.output[1] >= 5.0

    def test_uncovered_region_flagged(self):
        arena = _mini_arena(
            feature=np.array([0, -1], dtype=np.int64),
            threshold=np.array([0.5, np.nan]),
            left=np.array([-1, -1], dtype=np.int64),
            right=np.array([1, -1], dtype=np.int64),
            parent=np.array([-1, 0], dtype=np.int64),
            leaf_id=np.array([0, 1], dtype=np.int64),
            n_instances=np.array([10, 5], dtype=np.int64),
            has_model=np.array([True, True]),
            intercept=np.array([1.5, 1.0]),
            term_offset=np.array([0, 0, 0], dtype=np.int64),
            term_feature=np.array([], dtype=np.int64),
            term_coefficient=np.array([]),
        )
        result = verify_arena(arena, self.ATTRS, self.RANGES)
        uncovered = [
            d for d in result.diagnostics if d.rule_id == "VERIFY006"
        ]
        assert uncovered and "missing child" in uncovered[0].message
        assert result.certificate is None

    def test_dead_branch_outside_domain(self):
        # Threshold above the whole domain: the right branch (a > 2)
        # can never fire.
        arena = _mini_arena(threshold=np.array([2.0, np.nan, np.nan]))
        analysis = analyze(arena, self.ATTRS, self.RANGES)
        dead = [d for d in analysis.diagnostics if d.rule_id == "VERIFY005"]
        assert len(dead) == 1
        assert analysis.dead_nodes == [2]

    def test_invariant_infeasible_branch(self):
        # Split on L2M at 0.5 with L1DM capped at 0.3: the right branch
        # would need L2M > 0.5 > L1DM, violating the Table I hierarchy.
        arena = _mini_arena(
            feature=np.array([1, -1, -1], dtype=np.int64),
            term_feature=np.array([0], dtype=np.int64),
        )
        analysis = analyze(
            arena, ("L1DM", "L2M"), [(0.0, 0.3), (0.0, 1.0)]
        )
        dead = [d for d in analysis.diagnostics if d.rule_id == "VERIFY005"]
        assert len(dead) == 1
        assert "invariant" in dead[0].message

    def test_pinned_feature_coefficient_warns(self):
        analysis = analyze(
            _mini_arena(), self.ATTRS, [(0.0, 1.0), (0.7, 0.7)]
        )
        pinned = [d for d in analysis.diagnostics if d.rule_id == "VERIFY007"]
        assert len(pinned) == 1
        assert pinned[0].severity is Severity.WARNING
        assert "0.7" in pinned[0].message

    def test_no_ranges_is_a_single_warning(self):
        analysis = analyze(_mini_arena(), self.ATTRS, feature_ranges=None)
        assert not analysis.has_ranges
        warnings = [
            d for d in analysis.diagnostics if d.rule_id == "VERIFY008"
        ]
        assert len(warnings) == 1
        assert warnings[0].severity is Severity.WARNING

    def test_smoothing_chain_without_ancestor_model(self):
        arena = _mini_arena(
            has_model=np.array([False, True, True]),
            intercept=np.array([np.nan, 1.0, 2.0]),
        )
        result = verify_arena(
            arena, self.ATTRS, self.RANGES, smoothing_k=15.0
        )
        assert "VERIFY008" in _error_ids(result.diagnostics)
        assert result.certificate is None

    def test_smoothing_widens_toward_ancestor(self):
        result = verify_arena(
            _mini_arena(), self.ATTRS, self.RANGES, smoothing_k=15.0
        )
        assert result.ok and result.certificate is not None
        # LM1 raw output is exactly 1.0; smoothing blends in the root
        # model (1.5), pulling the certified interval strictly up.
        lm1 = result.certificate.leaf(1)
        assert lm1.output[1] > 1.0 + 1e-6


class TestAnalyzeProductionArena:
    def test_suite_tree_is_clean_and_partitioned(self, suite_tree):
        result = verify_arena(
            suite_tree.compiled_,
            suite_tree.attributes_,
            suite_tree.feature_ranges_,
        )
        assert result.ok
        assert result.certificate is not None
        assert len(result.certificate.leaves) == suite_tree.n_leaves

    def test_coefficient_on_pinned_feature_caught(self, suite_tree):
        # Seeded mutation: retarget one model term at a feature whose
        # domain is collapsed to a single point.  The coefficient is
        # then unidentifiable -- VERIFY007 by name.
        arena = copy.deepcopy(suite_tree.compiled_)
        used_by_splits = set(
            int(f) for f in arena.feature[arena.feature >= 0]
        )
        invariant_columns = {
            "InstLd", "InstSt", "BrMisPr", "BrPred", "InstOther",
            "L1DM", "L2M", "DtlbL0LdM", "DtlbLdM", "DtlbLdReM", "Dtlb",
        }
        pinned = next(
            i for i, name in enumerate(suite_tree.attributes_)
            if i not in used_by_splits and name not in invariant_columns
        )
        ranges = list(suite_tree.feature_ranges_)
        ranges[pinned] = (ranges[pinned][0], ranges[pinned][0])
        # VERIFY007 looks at leaf models, so mutate a leaf's term.
        leaf_term = next(
            int(arena.term_offset[node])
            for node in np.flatnonzero(arena.feature < 0)
            if arena.term_offset[node + 1] > arena.term_offset[node]
        )
        arena.term_feature[leaf_term] = pinned
        result = verify_arena(arena, suite_tree.attributes_, ranges)
        assert "VERIFY007" in _ids(result.diagnostics)
        assert "VERIFY007" not in _error_ids(result.diagnostics)

    def test_dead_branch_mutation_caught(self, suite_tree):
        arena = copy.deepcopy(suite_tree.compiled_)
        split = int(np.flatnonzero(arena.feature >= 0)[0])
        f = int(arena.feature[split])
        low, high = suite_tree.feature_ranges_[f]
        arena.threshold[split] = high + abs(high) + 1.0
        result = verify_arena(
            arena, suite_tree.attributes_, suite_tree.feature_ranges_
        )
        assert "VERIFY005" in _error_ids(result.diagnostics)
