"""The FOREST00x lint family: published-forest integrity auditing."""

import hashlib
import json

import pytest

from repro.baselines import BaggedM5
from repro.datasets.synthetic import figure1_dataset
from repro.lint import FAMILY_FOREST, lint_forest, run_lint
from repro.lint.diagnostics import Severity
from repro.serve.refine import RefinedForest
from repro.serve.registry import ModelRegistry


@pytest.fixture(scope="module")
def fitted_forest():
    data = figure1_dataset(n=160, noise_sd=0.05, rng=31)
    forest = BaggedM5(n_estimators=3, min_instances=25, seed=2).fit(data)
    RefinedForest(forest).fit(data)
    return forest


@pytest.fixture
def registry(tmp_path, fitted_forest):
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish("cpi-forest", fitted_forest)
    return registry


def _rule_ids(report):
    return sorted({d.rule_id for d in report.diagnostics})


def _errors(report, rule_id):
    """The messages of a rule's findings, each of them an ERROR."""
    found = [d for d in report.diagnostics if d.rule_id == rule_id]
    assert found, report.diagnostics
    assert all(d.severity is Severity.ERROR for d in found)
    return [d.message for d in found]


def _edit_blob(registry, mutate):
    """Rewrite the forest blob (and its checksum, so SERVE003 stays
    quiet and the FOREST rules own the finding)."""
    record = registry.records()[0]
    blob = registry.directory / record.blob
    document = json.loads(blob.read_text())
    mutate(document)
    blob.write_text(json.dumps(document))
    registry.cache.checksum_path(blob).write_text(
        hashlib.sha256(blob.read_bytes()).hexdigest() + "\n"
    )


class TestForestRules:
    def test_clean_forest_registry_is_clean(self, registry):
        report = lint_forest(registry.directory)
        assert report.diagnostics == []
        assert report.exit_code(strict=True) == 0

    def test_run_lint_includes_forest_family(self, registry):
        report = run_lint(registry_dir=registry.directory)
        assert FAMILY_FOREST in report.families

    def test_tree_only_registry_yields_no_findings(self, tmp_path,
                                                   suite_tree):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish("cpi-tree", suite_tree)
        report = lint_forest(registry.directory)
        assert report.diagnostics == []

    def test_format_mismatch_errors_forest001(self, registry):
        _edit_blob(registry, lambda d: d.update(format="repro-m5prime"))
        report = lint_forest(registry.directory)
        assert "FOREST001" in _rule_ids(report)

    def test_unreadable_blob_errors_forest001(self, registry):
        record = registry.records()[0]
        blob = registry.directory / record.blob
        blob.write_text("{not json")
        registry.cache.checksum_path(blob).write_text(
            hashlib.sha256(blob.read_bytes()).hexdigest() + "\n"
        )
        report = lint_forest(registry.directory)
        assert _rule_ids(report) == ["FOREST001"]

    def test_tree_count_lie_errors_forest001(self, registry):
        # The loader refuses the document, so FOREST001 owns the lie.
        _edit_blob(registry, lambda d: d.update(n_trees=9))
        report = lint_forest(registry.directory)
        assert any(
            "tree-count mismatch" in m for m in _errors(report, "FOREST001")
        )

    def test_refined_length_mismatch_errors_forest001(self, registry):
        def truncate(document):
            document["refined"]["weights"] = (
                document["refined"]["weights"][:-1]
            )

        _edit_blob(registry, truncate)
        report = lint_forest(registry.directory)
        assert any(
            "offset mismatch" in m for m in _errors(report, "FOREST001")
        )

    def test_nonfinite_weight_errors_forest004(self, registry):
        def poison(document):
            index = document["refined"]["active"].index(1)
            document["refined"]["weights"][index] = float("nan")

        _edit_blob(registry, poison)
        report = lint_forest(registry.directory)
        assert "FOREST004" in _rule_ids(report)

    def test_dead_tree_warns_forest005(self, registry, fitted_forest):
        compiled = fitted_forest.compiled_
        first_tree = range(int(compiled.leaf_offset[0]),
                           int(compiled.leaf_offset[1]))

        def kill_tree(document):
            for column in first_tree:
                document["refined"]["active"][column] = 0

        _edit_blob(registry, kill_tree)
        report = lint_forest(registry.directory)
        assert "FOREST005" in _rule_ids(report)
        finding = next(
            d for d in report.diagnostics if d.rule_id == "FOREST005"
        )
        assert "tree[0]" in finding.message
        assert report.exit_code(strict=False) == 0  # warning, not error

    def test_single_tree_forest_warns_forest006(self, tmp_path):
        data = figure1_dataset(n=120, noise_sd=0.05, rng=33)
        solo = BaggedM5(n_estimators=1, min_instances=30, seed=1).fit(data)
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish("solo-forest", solo)
        report = lint_forest(registry.directory)
        assert _rule_ids(report) == ["FOREST006"]
        assert report.exit_code(strict=False) == 0
        assert report.exit_code(strict=True) == 1


class TestForestRulesRunTheVerifier:
    """Tampered blobs the verifier rejects must not lint clean."""

    def test_every_leaf_pruned_errors_forest003(self, registry):
        def prune_all(document):
            active = document["refined"]["active"]
            document["refined"]["active"] = [0] * len(active)

        _edit_blob(registry, prune_all)
        report = lint_forest(registry.directory)
        assert any(
            "every refined leaf is pruned" in m
            for m in _errors(report, "FOREST003")
        )
        assert report.exit_code(strict=False) == 2

    def test_nan_leaf_model_errors_forest001(self, registry):
        def poison(document):
            node = document["trees"][1]["tree"]
            while node["kind"] == "split":
                node = node["left"]
            node["model"]["intercept"] = float("nan")

        _edit_blob(registry, poison)
        report = lint_forest(registry.directory)
        assert any(
            "tree[1]" in m and "VERIFY004" in m
            for m in _errors(report, "FOREST001")
        )
        assert report.exit_code(strict=False) == 2

    def test_nan_threshold_errors_forest001(self, registry):
        def poison(document):
            root = document["trees"][2]["tree"]
            assert root["kind"] == "split"
            root["threshold"] = float("nan")

        _edit_blob(registry, poison)
        report = lint_forest(registry.directory)
        assert any(
            "tree[2]" in m and "VERIFY001" in m
            for m in _errors(report, "FOREST001")
        )
        assert report.exit_code(strict=False) == 2
