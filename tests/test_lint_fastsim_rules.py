"""The FASTSIM lint family: calibration artifacts, good and broken.

FASTSIM001 reports ``Calibration.from_dict``'s refusals, FASTSIM003 the
``staleness()`` problems and FASTSIM006 the fit quality; the cases that
checked the retired ids (FASTSIM002, 004, 005, 007) assert the id that
reports their finding now.
"""

import json

import pytest

from repro.errors import LintError
from repro.fastsim import machine_fingerprint
from repro.lint import FAMILY_FASTSIM, LintConfig, lint_calibration, run_lint
from repro.lint.diagnostics import Severity
from repro.workloads.suite import workload_fingerprint


def rule_ids(report):
    return sorted({d.rule_id for d in report.diagnostics})


@pytest.fixture()
def clean_payload(small_calibration):
    """An artifact payload every FASTSIM rule accepts.

    The tiny-profile calibration is genuinely stale for the default
    suite, so its fingerprints are rewritten to the current ones — the
    lint rules audit the serialized document, not the fit itself.
    """
    payload = small_calibration.to_dict()
    payload["machine_fingerprint"] = machine_fingerprint()
    payload["workload_fingerprint"] = workload_fingerprint(None)
    return payload


#: The tiny fit's in-sample p95 (~0.5) trips the default 0.20 bound, so
#: the clean-case config raises it — FASTSIM006 has its own tests.
LAX = LintConfig(calibration_rel_err=1.0)


class TestDocumentLoading:
    def test_clean_artifact_is_clean(self, clean_payload):
        report = lint_calibration(clean_payload, LAX)
        assert report.diagnostics == []
        assert report.exit_code(strict=True) == 0

    def test_path_variant_loads_the_file(self, tmp_path, clean_payload):
        path = tmp_path / "calibration.json"
        path.write_text(json.dumps(clean_payload))
        assert lint_calibration(path, LAX).diagnostics == []

    def test_unreadable_file_is_a_finding_not_a_crash(self, tmp_path):
        report = lint_calibration(tmp_path / "missing.json")
        assert rule_ids(report) == ["FASTSIM001"]
        assert "unreadable" in report.diagnostics[0].message

    def test_invalid_json_is_a_finding(self, tmp_path):
        path = tmp_path / "calibration.json"
        path.write_text("{not json")
        report = lint_calibration(path)
        assert rule_ids(report) == ["FASTSIM001"]
        assert "not valid JSON" in report.diagnostics[0].message

    def test_non_object_document_is_a_finding(self, tmp_path):
        path = tmp_path / "calibration.json"
        path.write_text("[1, 2]")
        report = lint_calibration(path)
        assert rule_ids(report) == ["FASTSIM001"]
        assert "JSON object" in report.diagnostics[0].message


class TestSchema:
    def test_wrong_schema_tag(self, clean_payload):
        clean_payload["schema"] = "repro-fastsim-calibration/0"
        report = lint_calibration(clean_payload, LAX)
        assert rule_ids(report) == ["FASTSIM001"]
        assert report.exit_code() == 2

    def test_missing_required_key(self, clean_payload):
        del clean_payload["anchors"]
        report = lint_calibration(clean_payload, LAX)
        assert rule_ids(report) == ["FASTSIM001"]
        assert "anchors" in report.diagnostics[0].message

    def test_schema_failure_gates_the_content_rules(self, clean_payload):
        # A document that does not load must not cascade into crashes
        # or noise from the freshness and quality rules.
        del clean_payload["model"]
        clean_payload["machine_fingerprint"] = "bogus"
        assert rule_ids(lint_calibration(clean_payload, LAX)) == ["FASTSIM001"]


class TestFingerprints:
    def test_machine_mismatch(self, clean_payload):
        clean_payload["machine_fingerprint"] = "0" * 16
        report = lint_calibration(clean_payload, LAX)
        assert rule_ids(report) == ["FASTSIM003"]
        assert "recalibrate" in report.diagnostics[0].message
        assert report.exit_code() == 2

    def test_workload_mismatch(self, clean_payload):
        clean_payload["workload_fingerprint"] = "0" * 16
        report = lint_calibration(clean_payload, LAX)
        assert rule_ids(report) == ["FASTSIM003"]
        assert "suite" in report.diagnostics[0].message
        assert report.exit_code() == 2

    def test_raw_small_calibration_is_stale_for_the_default_suite(
        self, small_calibration
    ):
        # Without the fingerprint rewrite the artifact is exactly what
        # these rules exist to catch: same machine, different suite.
        report = lint_calibration(small_calibration.to_dict(), LAX)
        assert rule_ids(report) == ["FASTSIM003"]
        assert "workload fingerprint" in report.diagnostics[0].message


class TestModelAndAnchors:
    def test_model_fails_to_deserialize(self, clean_payload):
        clean_payload["model"] = {"schema": "not-a-tree"}
        report = lint_calibration(clean_payload, LAX)
        assert rule_ids(report) == ["FASTSIM001"]
        assert "deserialize" in report.diagnostics[0].message
        assert report.exit_code() == 2

    def test_empty_anchor_table(self, clean_payload):
        clean_payload["anchors"] = {}
        report = lint_calibration(clean_payload, LAX)
        assert rule_ids(report) == ["FASTSIM001"]
        assert "empty" in report.diagnostics[0].message

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), "0.1", None])
    def test_non_finite_anchor_entries(self, clean_payload, bad):
        key = next(iter(clean_payload["anchors"]))
        clean_payload["anchors"] = dict(clean_payload["anchors"], **{key: bad})
        report = lint_calibration(clean_payload, LAX)
        assert rule_ids(report) == ["FASTSIM001"]
        assert key in report.diagnostics[0].message

    def test_broken_nominal_corrections(self, clean_payload):
        clean_payload["nominal_corrections"] = {"k": float("nan")}
        assert rule_ids(lint_calibration(clean_payload, LAX)) == ["FASTSIM001"]


class TestFitQuality:
    def test_missing_stats_warn(self, clean_payload):
        del clean_payload["stats"]
        report = lint_calibration(clean_payload, LAX)
        assert rule_ids(report) == ["FASTSIM006"]
        (finding,) = report.diagnostics
        assert finding.severity is Severity.WARNING
        assert "never measured" in finding.message
        # Warnings only block strict runs.
        assert report.exit_code() == 0
        assert report.exit_code(strict=True) != 0

    def test_rel_err_over_the_bound_warns(self, clean_payload):
        # The tiny fit's p95 (~0.5) exceeds the default 0.20 bound.
        report = lint_calibration(clean_payload)
        assert rule_ids(report) == ["FASTSIM006"]
        assert "exceeds" in report.diagnostics[0].message

    def test_non_finite_rel_err(self, clean_payload):
        clean_payload["stats"] = dict(clean_payload["stats"],
                                      rel_err_p95=float("nan"))
        report = lint_calibration(clean_payload, LAX)
        assert rule_ids(report) == ["FASTSIM006"]
        assert "finite" in report.diagnostics[0].message

    def test_bound_is_configurable(self, clean_payload):
        tight = LintConfig(calibration_rel_err=1e-6)
        assert "FASTSIM006" in rule_ids(lint_calibration(clean_payload, tight))


class TestFeatureNames:
    def test_reordered_features_rejected(self, clean_payload):
        names = list(clean_payload["feature_names"])
        names[0], names[1] = names[1], names[0]
        clean_payload["feature_names"] = names
        report = lint_calibration(clean_payload, LAX)
        assert rule_ids(report) == ["FASTSIM003"]
        assert "wrong order" in report.diagnostics[0].message
        assert report.exit_code() == 2

    def test_truncated_features_rejected(self, clean_payload):
        clean_payload["feature_names"] = clean_payload["feature_names"][:-1]
        assert rule_ids(lint_calibration(clean_payload, LAX)) == ["FASTSIM003"]


class TestFamilySelection:
    def test_family_requires_an_artifact(self):
        with pytest.raises(LintError, match="calibration"):
            run_lint(calibration=None, families=(FAMILY_FASTSIM,))

    def test_artifact_alone_selects_only_fastsim(self, clean_payload):
        report = run_lint(calibration=clean_payload, config=LAX)
        assert report.families == (FAMILY_FASTSIM,)
