"""The FLEET lint family: fleet-config documents, good and broken."""

import json

import pytest

from repro.errors import FleetError, LintError
from repro.lint import FAMILY_FLEET, lint_fleet, run_lint
from repro.lint.diagnostics import Severity
from repro.serve.fleet import FleetConfig


def rule_ids(report):
    return sorted({d.rule_id for d in report.diagnostics})


class TestDocumentLoading:
    def test_clean_config_is_clean(self):
        report = lint_fleet({"workers": 4, "mode": "router",
                             "max_inflight": 64})
        assert report.diagnostics == []
        assert report.exit_code(strict=True) == 0

    def test_empty_config_is_clean(self):
        # Every key optional: defaults are a valid fleet.
        assert lint_fleet({}).diagnostics == []

    def test_path_variant_loads_the_file(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text(json.dumps({"workers": 2}))
        assert lint_fleet(path).diagnostics == []

    def test_unreadable_file_is_a_finding_not_a_crash(self, tmp_path):
        report = lint_fleet(tmp_path / "missing.json")
        assert rule_ids(report) == ["FLEET001"]
        assert "unreadable" in report.diagnostics[0].message

    def test_invalid_json_is_a_finding(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text("{not json")
        report = lint_fleet(path)
        assert rule_ids(report) == ["FLEET001"]
        assert "not valid JSON" in report.diagnostics[0].message

    def test_non_object_document_is_a_finding(self, tmp_path):
        path = tmp_path / "fleet.json"
        path.write_text("[1, 2]")
        report = lint_fleet(path)
        assert rule_ids(report) == ["FLEET001"]

    def test_unknown_key_flagged(self):
        report = lint_fleet({"wrokers": 4})
        assert rule_ids(report) == ["FLEET001"]
        assert "wrokers" in report.diagnostics[0].message

    def test_removed_max_wait_key_rejected(self):
        # Batches form from contention; there is no batching hold left
        # to configure, so an old config naming one must not pass.
        document = {"max_wait_s": 0.002}
        with pytest.raises(FleetError, match="max_wait_s"):
            FleetConfig.from_dict(document)
        report = lint_fleet(document)
        assert rule_ids(report) == ["FLEET001"]
        assert "max_wait_s" in report.diagnostics[0].message


class TestValueRules:
    @pytest.mark.parametrize("workers", [0, -1, 1.5, "four", True])
    def test_fleet002_workers(self, workers):
        assert "FLEET002" in rule_ids(lint_fleet({"workers": workers}))

    def test_fleet003_unknown_mode(self):
        report = lint_fleet({"mode": "cluster"})
        assert "FLEET003" in rule_ids(report)

    def test_fleet003_reuseport_needs_fixed_port(self):
        report = lint_fleet({"mode": "reuseport", "port": 0})
        assert "FLEET003" in rule_ids(report)
        assert lint_fleet({"mode": "reuseport", "port": 8377}) \
            .diagnostics == []

    @pytest.mark.parametrize("key,value", [
        ("probe_interval_s", 0),
        ("probe_timeout_s", -1.0),
        ("router_timeout_s", "fast"),
        ("retry_after_s", 0),
        ("drain_timeout_s", -0.5),
        ("restart_base_delay_s", -1),
        ("task_timeout", 0),
    ])
    def test_fleet004_timing_values(self, key, value):
        assert "FLEET004" in rule_ids(lint_fleet({key: value}))

    def test_fleet004_null_task_timeout_ok(self):
        assert lint_fleet({"task_timeout": None}).diagnostics == []

    def test_fleet005_null_max_inflight_warns(self):
        report = lint_fleet({"max_inflight": None})
        assert rule_ids(report) == ["FLEET005"]
        (finding,) = report.diagnostics
        assert finding.severity is Severity.WARNING
        assert "admission" in finding.message

    def test_fleet005_invalid_max_inflight_is_an_error(self):
        report = lint_fleet({"max_inflight": 0})
        (finding,) = [d for d in report.diagnostics
                      if d.rule_id == "FLEET005"]
        assert finding.severity is Severity.ERROR

    def test_fleet006_timeout_ordering(self):
        report = lint_fleet({"task_timeout": 10.0, "router_timeout_s": 10.0})
        assert "FLEET006" in rule_ids(report)
        assert lint_fleet(
            {"task_timeout": 1.0, "router_timeout_s": 10.0}
        ).diagnostics == []

    @pytest.mark.parametrize("document", [
        {"breaker_threshold": 0},
        {"breaker_threshold": 2.5},
        {"breaker_cooldown_s": -1.0},
    ])
    def test_fleet007_breaker_settings(self, document):
        assert "FLEET007" in rule_ids(lint_fleet(document))


class TestFamilySelection:
    def test_family_requires_a_config(self):
        with pytest.raises(LintError, match="fleet config"):
            run_lint(fleet_config=None, families=(FAMILY_FLEET,))

    def test_config_alone_selects_only_fleet(self):
        report = run_lint(fleet_config={"workers": 2})
        assert report.families == (FAMILY_FLEET,)
