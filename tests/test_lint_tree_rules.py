"""Tree-family lint rules: one clean and one violating fixture per rule."""

import dataclasses

import pytest

from repro.core.tree import M5Prime
from repro.core.tree.linear import LinearModel
from repro.core.tree.node import LeafNode, SplitNode, assign_leaf_ids
from repro.lint import LintConfig, lint_model, run_lint


def lm(intercept=1.0, indices=(), names=(), coefficients=(), n=10, error=0.1):
    return LinearModel(
        intercept=intercept,
        indices=tuple(indices),
        names=tuple(names),
        coefficients=tuple(coefficients),
        n_training=n,
        training_error=error,
    )


def leaf(n=10, model="default"):
    node = LeafNode(n, 0.1, 1.0)
    node.model = lm(n=n) if model == "default" else model
    return node


def split(index, name, threshold, left, right, n=None):
    node = SplitNode(
        n if n is not None else left.n_instances + right.n_instances,
        0.2, 1.0, index, name, threshold, left, right,
    )
    node.model = lm(n=node.n_instances)
    return node


def make_model(root, attributes=("f0", "f1"), min_instances=2,
               ranges=((0.0, 10.0), (0.0, 10.0)), assign_ids=True):
    model = M5Prime(min_instances=min_instances)
    model.root_ = root
    model.attributes_ = tuple(attributes)
    model.target_name_ = "CPI"
    model.feature_ranges_ = ranges
    if assign_ids:
        assign_leaf_ids(root)
    return model


@pytest.fixture
def clean_model():
    root = split(0, "f0", 5.0, leaf(), leaf())
    return make_model(root)


class TestCleanTree:
    def test_clean_model_lints_clean(self, clean_model):
        report = lint_model(clean_model)
        assert report.is_clean, [d.render() for d in report.diagnostics]
        assert report.families == ("tree",)
        assert report.n_rules >= 8

    def test_fitted_tree_lints_clean(self, figure1_tree):
        assert lint_model(figure1_tree).is_clean


class TestTree001FeatureIndex:
    def test_index_out_of_range(self):
        model = make_model(split(5, "f5", 5.0, leaf(), leaf()))
        found = lint_model(model).by_rule("TREE001")
        assert found and "index 5" in found[0].message

    def test_name_index_mismatch(self):
        model = make_model(split(1, "f0", 5.0, leaf(), leaf()))
        found = lint_model(model).by_rule("TREE001")
        assert found and "'f0'" in found[0].message


class TestTree002Unreachable:
    """Dead branches are VERIFY005's finding (TREE002 is retired); the
    verifier reports the topmost dead node of each dead subtree."""

    def test_contradictory_thresholds(self):
        # right of f0 <= 5 implies f0 > 5, so a nested f0 <= 3 left
        # branch can never be taken
        inner = split(0, "f0", 3.0, leaf(), leaf())
        model = make_model(split(0, "f0", 5.0, leaf(), inner))
        report = run_lint(model=model)
        found = report.by_rule("VERIFY005")
        assert len(found) == 1
        assert "dead branch" in found[0].message
        assert found[0].location == "node 3 (leaf LM2)"
        assert report.exit_code() == 2
        assert not lint_model(model).diagnostics

    def test_reports_maximal_subtree_only(self):
        # the whole inner-left subtree is dead; only its root is flagged
        dead = split(1, "f1", 2.0, leaf(), leaf())
        inner = split(0, "f0", 3.0, dead, leaf())
        model = make_model(split(0, "f0", 5.0, leaf(), inner))
        report = run_lint(model=model)
        assert [(d.rule_id, d.location) for d in report.diagnostics] == [
            ("VERIFY005", "node 3"),
        ]

    def test_equal_threshold_right_reuse_is_unreachable(self):
        # right of f0 <= 5 then left of f0 <= 5 again: interval (5, 5]
        inner = split(0, "f0", 5.0, leaf(), leaf())
        model = make_model(split(0, "f0", 5.0, leaf(), inner))
        found = run_lint(model=model).by_rule("VERIFY005")
        assert [d.location for d in found] == ["node 3 (leaf LM2)"]


class TestTree003LeafPopulation:
    def test_small_leaf_flagged(self):
        model = make_model(
            split(0, "f0", 5.0, leaf(n=1), leaf(n=19)), min_instances=4
        )
        found = lint_model(model).by_rule("TREE003")
        assert found and "below" in found[0].message

    def test_single_root_leaf_exempt(self):
        model = make_model(leaf(n=1), min_instances=4)
        assert not lint_model(model).by_rule("TREE003")


class TestTree004ModelIntegrity:
    def test_missing_model(self):
        model = make_model(split(0, "f0", 5.0, leaf(model=None), leaf()))
        found = lint_model(model).by_rule("TREE004")
        assert found and "lacks a linear model" in found[0].message

    def test_nan_coefficient(self):
        bad = lm(indices=(0,), names=("f0",), coefficients=(float("nan"),))
        model = make_model(split(0, "f0", 5.0, leaf(model=bad), leaf()))
        found = lint_model(model).by_rule("TREE004")
        assert found and "non-finite" in found[0].message

    def test_zero_population_model(self):
        model = make_model(
            split(0, "f0", 5.0, leaf(model=lm(n=0)), leaf())
        )
        assert lint_model(model).by_rule("TREE004")

    def test_negative_training_error(self):
        model = make_model(
            split(0, "f0", 5.0, leaf(model=lm(error=-1.0)), leaf())
        )
        assert lint_model(model).by_rule("TREE004")


class TestTree005DegenerateCoefficients:
    def test_huge_coefficient_flagged(self):
        bad = lm(indices=(0,), names=("f0",), coefficients=(1e9,))
        model = make_model(split(0, "f0", 5.0, leaf(model=bad), leaf()))
        found = lint_model(model).by_rule("TREE005")
        assert found and "f0=1e+09" in found[0].message

    def test_bound_is_configurable(self):
        bad = lm(indices=(0,), names=("f0",), coefficients=(50.0,))
        model = make_model(split(0, "f0", 5.0, leaf(model=bad), leaf()))
        config = LintConfig(coefficient_bound=10.0)
        assert lint_model(model, config=config).by_rule("TREE005")
        assert not lint_model(model).by_rule("TREE005")


class TestTree006ThresholdRange:
    def test_threshold_outside_training_range(self):
        model = make_model(split(0, "f0", 50.0, leaf(), leaf()))
        found = lint_model(model).by_rule("TREE006")
        assert found and "outside the training range" in found[0].message

    def test_no_recorded_ranges_skips(self):
        model = make_model(split(0, "f0", 50.0, leaf(), leaf()), ranges=None)
        assert not lint_model(model).by_rule("TREE006")


class TestTree007RoundTrip:
    def test_drift_detected(self, clean_model, monkeypatch):
        import repro.core.tree.serialize as serialize_mod

        real = serialize_mod.model_from_dict

        def drifted(payload):
            clone = real(payload)
            for node in clone.root_.leaves():
                node.model = dataclasses.replace(
                    node.model, intercept=node.model.intercept + 1.0
                )
            return clone

        monkeypatch.setattr(serialize_mod, "model_from_dict", drifted)
        found = lint_model(clean_model).by_rule("TREE007")
        assert found and "drift" in found[0].message
        assert found[0].severity.value == "error"

    def test_clean_round_trip(self, clean_model):
        assert not lint_model(clean_model).by_rule("TREE007")


class TestTree008PopulationConsistency:
    def test_mismatched_split_population(self):
        model = make_model(split(0, "f0", 5.0, leaf(), leaf(), n=5))
        found = lint_model(model).by_rule("TREE008")
        assert found and "children" in found[0].message


class TestTree009LeafIds:
    def test_out_of_order_ids(self):
        root = split(0, "f0", 5.0, leaf(), leaf())
        model = make_model(root, assign_ids=False)
        root.left.leaf_id = 2
        root.right.leaf_id = 1
        found = lint_model(model).by_rule("TREE009")
        assert len(found) == 2
        assert "LM2, expected LM1" in found[0].message
