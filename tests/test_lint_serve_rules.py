"""The SERVE0xx lint family: static model-registry auditing.

``repro lint --registry`` runs the SERVE rules and the CACHE rules over
the registry directory.  Some case names carry ids that are retired
(SERVE003, SERVE004, SERVE006); each case asserts the id that reports
its finding now (see the retired-id table in ``docs/lint.md``).
"""

import hashlib
import json

import pytest

from repro.cli import main
from repro.datasets.dataset import Dataset
from repro.errors import LintError
from repro.lint import FAMILY_CACHE, FAMILY_SERVE, lint_registry, run_lint
from repro.lint.diagnostics import Severity
from repro.serve.registry import ModelRegistry


@pytest.fixture
def registry(tmp_path, suite_tree):
    """A registry holding one published model with an alias."""
    registry = ModelRegistry(tmp_path / "registry")
    registry.publish("cpi-tree", suite_tree, aliases=["prod"])
    return registry


def _rule_ids(report):
    return sorted({d.rule_id for d in report.diagnostics})


def _manifest(registry):
    return json.loads(registry.manifest_path.read_text())


def _serve002(report):
    """The messages of SERVE002's findings, each of them an ERROR."""
    found = report.by_rule("SERVE002")
    assert found, report.diagnostics
    assert all(d.severity is Severity.ERROR for d in found)
    return [d.message for d in found]


class TestServeRules:
    def test_clean_registry_is_clean(self, registry):
        report = lint_registry(registry.directory)
        assert report.diagnostics == []
        assert report.exit_code(strict=True) == 0

    def test_unreadable_manifest_errors_serve001(self, registry):
        registry.manifest_path.write_text("{not json")
        report = lint_registry(registry.directory)
        assert _rule_ids(report) == ["SERVE001"]
        assert report.exit_code(strict=False) == 2

    def test_wrong_schema_errors_serve001(self, registry):
        registry.manifest_path.write_text(json.dumps({"schema": "other/9"}))
        report = lint_registry(registry.directory)
        assert _rule_ids(report) == ["SERVE001"]

    def test_missing_blob_errors_serve002(self, registry):
        record = registry.records()[0]
        blob = registry.directory / record.blob
        blob.unlink()
        registry.cache.checksum_path(blob).unlink()
        report = lint_registry(registry.directory)
        assert "SERVE002" in _rule_ids(report)
        assert record.spec in report.diagnostics[0].message

    def test_corrupt_blob_errors_serve003(self, registry):
        record = registry.records()[0]
        blob = registry.directory / record.blob
        blob.write_text(blob.read_text()[:40])
        report = lint_registry(registry.directory)
        assert "CACHE002" in _rule_ids(report)
        # The truncated blob does not load either.
        assert any("does not load" in m for m in _serve002(report))
        assert report.exit_code(strict=False) == 2
        # The lint is read-only: the blob must NOT get quarantined.
        assert blob.exists()

    def test_manifest_blob_disagreement_errors_serve004(self, registry):
        document = _manifest(registry)
        entry = document["models"]["cpi-tree"]["versions"]["1"]
        entry["attributes"] = list(entry["attributes"][:-1]) + ["Rogue"]
        registry.manifest_path.write_text(json.dumps(document))
        report = lint_registry(registry.directory)
        assert _rule_ids(report) == ["SERVE002"]
        assert "Rogue" in " ".join(_serve002(report))
        assert report.exit_code(strict=False) == 2

    def test_manifest_kind_disagreement_errors_serve002(self, registry):
        document = _manifest(registry)
        document["models"]["cpi-tree"]["versions"]["1"]["kind"] = "forest"
        registry.manifest_path.write_text(json.dumps(document))
        report = lint_registry(registry.directory)
        assert _rule_ids(report) == ["SERVE002"]
        assert "kind 'forest'" in " ".join(_serve002(report))

    def test_dataset_schema_drift_errors_serve005(self, registry, suite_tree,
                                                  suite_dataset):
        drifted = Dataset(
            suite_dataset.X,
            suite_dataset.y,
            ["New" + a for a in suite_dataset.attributes],
            suite_dataset.target_name,
        )
        report = lint_registry(registry.directory, dataset=drifted)
        assert "SERVE005" in _rule_ids(report)
        message = [
            d.message for d in report.diagnostics if d.rule_id == "SERVE005"
        ][0]
        assert "no longer matches" in message

    def test_reordered_dataset_columns_error_serve005(self, registry,
                                                      suite_dataset):
        names = list(suite_dataset.attributes)
        names[0], names[1] = names[1], names[0]
        reordered = Dataset(
            suite_dataset.X[:, [suite_dataset.attribute_index(n)
                                for n in names]],
            suite_dataset.y,
            names,
            suite_dataset.target_name,
        )
        report = lint_registry(registry.directory, dataset=reordered)
        message = [
            d.message for d in report.diagnostics if d.rule_id == "SERVE005"
        ][0]
        assert "different order" in message

    def test_matching_dataset_is_clean(self, registry, suite_dataset):
        report = lint_registry(registry.directory, dataset=suite_dataset)
        assert report.diagnostics == []

    def test_quarantined_blobs_warn_serve006(self, registry):
        registry.cache.quarantine_directory.mkdir(parents=True, exist_ok=True)
        (registry.cache.quarantine_directory / "model-old.json").write_text(
            "junk"
        )
        report = lint_registry(registry.directory)
        assert _rule_ids(report) == ["CACHE003"]
        assert report.exit_code(strict=False) == 0
        assert report.exit_code(strict=True) == 1

    def test_dangling_alias_warns_serve007(self, registry):
        document = _manifest(registry)
        document["models"]["cpi-tree"]["aliases"]["prod"] = 9
        registry.manifest_path.write_text(json.dumps(document))
        report = lint_registry(registry.directory)
        assert "SERVE007" in _rule_ids(report)

    def test_empty_registry_directory_is_clean(self, tmp_path):
        report = lint_registry(tmp_path / "nothing-here")
        assert report.diagnostics == []


class TestPublishedArtifacts:
    """Blobs and certificates changed after publish, checksums rewritten."""

    def test_nan_threshold_with_rewritten_sidecar_errors_serve002(
        self, registry, capsys
    ):
        record = registry.records()[0]
        blob = registry.directory / record.blob
        document = json.loads(blob.read_text())
        assert document["tree"]["kind"] == "split"
        document["tree"]["threshold"] = float("nan")
        blob.write_text(json.dumps(document))
        registry.cache.checksum_path(blob).write_text(
            hashlib.sha256(blob.read_bytes()).hexdigest() + "\n"
        )
        code = main(["lint", "--registry", str(registry.directory),
                     "--strict"])
        out = capsys.readouterr().out
        assert code == 2
        assert "SERVE002" in out and "VERIFY001" in out
        assert "CACHE002" not in out

    def test_deleted_sidecar_warns_cache001(self, registry, capsys):
        record = registry.records()[0]
        blob = registry.directory / record.blob
        registry.cache.checksum_path(blob).unlink()
        # The runtime cannot tell: resolve still serves the blob.
        model, _ = registry.resolve(record.spec)
        assert model.root_ is not None
        code = main(["lint", "--registry", str(registry.directory),
                     "--strict"])
        out = capsys.readouterr().out
        assert code == 1
        assert "CACHE001" in out and record.blob in out


class TestFamilyResolution:
    def test_serve_family_enabled_by_registry_dir(self, registry):
        report = run_lint(registry_dir=registry.directory)
        assert FAMILY_SERVE in report.families
        assert FAMILY_CACHE in report.families

    def test_serve_family_needs_registry_dir(self, suite_dataset):
        with pytest.raises(LintError, match="registry directory"):
            run_lint(dataset=suite_dataset, families=(FAMILY_SERVE,))


class TestCli:
    def test_lint_registry_clean(self, registry, capsys):
        code = main(["lint", "--registry", str(registry.directory)])
        assert code == 0
        assert "serve" in capsys.readouterr().out

    def test_lint_registry_corrupt_exits_2(self, registry, capsys):
        record = registry.records()[0]
        blob = registry.directory / record.blob
        blob.write_text("tampered")
        code = main(["lint", "--registry", str(registry.directory)])
        assert code == 2
        assert "CACHE002" in capsys.readouterr().out

    def test_list_rules_includes_serve_family(self, capsys):
        assert main(["lint", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule_id in ("SERVE001", "SERVE002", "SERVE005", "SERVE007"):
            assert rule_id in out
        for retired in ("SERVE003", "SERVE004", "SERVE006", "FOREST001"):
            assert retired not in out

    def test_registry_sweep(self, suite_tree, tmp_path, capsys):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish("cpi-tree", suite_tree)
        assert main(["lint", "--registry", str(tmp_path / "registry")]) == 0
        assert "clean" in capsys.readouterr().out

    def test_registry_catches_tampered_certificate(self, suite_tree,
                                                   tmp_path, capsys):
        registry = ModelRegistry(tmp_path / "registry")
        record = registry.publish("cpi-tree", suite_tree)
        path = registry.directory / record.certificate
        document = json.loads(path.read_text())
        document["output"][1] = document["output"][1] + 5.0
        path.write_text(json.dumps(document))
        assert main(["lint", "--registry", str(tmp_path / "registry"),
                     "--strict"]) == 2
        out = capsys.readouterr().out
        assert "SERVE002" in out and "cpi-tree@1" in out
        assert "disagrees" in out

    def test_verify_registry_is_gone(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["verify", "--registry"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments: --registry" in capsys.readouterr().err
