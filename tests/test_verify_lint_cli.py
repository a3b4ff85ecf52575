"""The VERIFY lint family and the ``repro verify`` CLI surface."""

import json

from repro.cli import main
from repro.core.tree import M5Prime
from repro.core.tree.linear import LinearModel
from repro.core.tree.node import LeafNode, SplitNode, assign_leaf_ids
from repro.core.tree.serialize import save_model
from repro.lint import lint_verify, run_lint


def _linear(intercept):
    return LinearModel(
        intercept=float(intercept), indices=(), names=(),
        coefficients=(), n_training=8, training_error=0.1,
    )


def _leaf(mean):
    node = LeafNode(8, 0.5, mean)
    node.model = _linear(mean)
    return node


def _dead_branch_model():
    inner = SplitNode(
        8, 0.5, 1.0, attribute_index=0, attribute_name="a",
        threshold=0.9, left=_leaf(1.0), right=_leaf(2.0),
    )
    inner.model = _linear(1.0)
    root = SplitNode(
        16, 0.5, 1.5, attribute_index=0, attribute_name="a",
        threshold=0.5, left=inner, right=_leaf(3.0),
    )
    root.model = _linear(1.5)
    model = M5Prime()
    model.attributes_ = ("a", "b")
    model.target_name_ = "Y"
    model.feature_ranges_ = ((0.0, 1.0), (0.0, 1.0))
    model.root_ = root
    assign_leaf_ids(root)
    return model


class TestLintFamily:
    def test_clean_model_yields_no_verify_findings(self, suite_tree):
        report = lint_verify(suite_tree)
        assert report.families == ("verify",)
        assert report.diagnostics == []
        assert report.n_rules == 8

    def test_family_included_in_full_model_lint(self, suite_tree):
        report = run_lint(model=suite_tree)
        assert "verify" in report.families

    def test_dead_branch_surfaces_through_lint(self):
        report = lint_verify(_dead_branch_model())
        assert any(d.rule_id == "VERIFY005" for d in report.diagnostics)
        assert report.exit_code() == 2


class TestVerifyCli:
    def test_clean_saved_model(self, suite_tree, tmp_path, capsys):
        path = tmp_path / "model.json"
        save_model(suite_tree, path)
        assert main(["verify", "--model", str(path)]) == 0
        out = capsys.readouterr().out
        assert "clean" in out and "certificate" in out

    def test_broken_saved_model_exits_2(self, tmp_path, capsys):
        path = tmp_path / "dead.json"
        save_model(_dead_branch_model(), path)
        assert main(["verify", "--model", str(path)]) == 2
        assert "VERIFY005" in capsys.readouterr().out

    def test_json_envelope(self, suite_tree, tmp_path, capsys):
        path = tmp_path / "model.json"
        save_model(suite_tree, path)
        assert main(["verify", "--model", str(path),
                     "--format", "json"]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "verify"
        target = document["targets"][0]
        assert target["ok"] is True
        assert target["certificate"]["leaves"]

    def test_no_target_is_an_error(self, capsys):
        assert main(["verify"]) == 2
        assert "--model" in capsys.readouterr().err
