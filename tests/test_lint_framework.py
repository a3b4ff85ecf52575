"""Lint framework: registry, reports, reporters, loading, properties."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.tree import M5Prime, load_model, save_model
from repro.counters.invariants import (
    METRIC_INVARIANTS,
    RAW_COUNT_INVARIANTS,
    applicable_invariants,
    check_dataset,
)
from repro.errors import LintError, ParseError
from repro.lint import (
    ALL_FAMILIES,
    Diagnostic,
    LintReport,
    Severity,
    all_rules,
    as_table,
    get_rule,
    lint_model,
    load_table,
    render_json,
    render_text,
    rule,
    run_lint,
)


class TestRegistry:
    def test_all_three_families_present(self):
        families = {r.family for r in all_rules()}
        assert families == set(ALL_FAMILIES)

    def test_rule_ids_are_stable_and_unique(self):
        ids = [r.rule_id for r in all_rules()]
        assert len(ids) == len(set(ids))
        assert {"TREE001", "DATA001", "COMPAT001"} <= set(ids)
        assert len(ids) >= 20

    def test_get_rule(self):
        assert get_rule("TREE001").severity is Severity.ERROR
        with pytest.raises(LintError):
            get_rule("NOPE999")

    def test_duplicate_registration_rejected(self):
        with pytest.raises(LintError):
            @rule("TREE001", "tree", Severity.ERROR, "imposter")
            def imposter(ctx):
                return ()


class TestRunLintGuards:
    def test_no_inputs_rejected(self):
        with pytest.raises(LintError):
            run_lint()

    def test_unfitted_model_rejected(self):
        with pytest.raises(LintError):
            run_lint(model=M5Prime())

    def test_unknown_family_rejected(self, figure1_tree):
        with pytest.raises(LintError):
            run_lint(model=figure1_tree, families=("nonsense",))

    def test_family_without_inputs_rejected(self, figure1_tree):
        with pytest.raises(LintError):
            run_lint(model=figure1_tree, families=("dataset",))


class TestReport:
    def _report(self, *severities):
        return LintReport(
            diagnostics=[
                Diagnostic("X001", s, "msg", "loc") for s in severities
            ],
            families=("tree",),
            n_rules=5,
        )

    def test_exit_code_contract(self):
        assert self._report().exit_code() == 0
        assert self._report(Severity.INFO).exit_code(strict=True) == 0
        warn = self._report(Severity.WARNING)
        assert warn.exit_code() == 0
        assert warn.exit_code(strict=True) == 1
        err = self._report(Severity.WARNING, Severity.ERROR)
        assert err.exit_code() == 2
        assert err.exit_code(strict=True) == 2

    def test_counts_and_summary(self):
        report = self._report(Severity.ERROR, Severity.WARNING)
        assert report.n_errors == 1 and report.n_warnings == 1
        assert not report.is_clean
        assert "1 error(s), 1 warning(s)" in report.summary()
        assert "clean" in self._report().summary()


class TestReporters:
    def test_text_rendering(self):
        report = LintReport(
            diagnostics=[
                Diagnostic("TREE002", Severity.ERROR, "dead branch", "leaf LM3")
            ],
            families=("tree",),
            n_rules=9,
        )
        text = render_text(report)
        assert "error" in text and "TREE002" in text and "[leaf LM3]" in text

    def test_json_envelope(self):
        report = LintReport(
            diagnostics=[Diagnostic("DATA001", Severity.ERROR, "nan", "column a")],
            families=("dataset",),
            n_rules=8,
        )
        doc = json.loads(render_json(report))
        assert doc["format"] == "repro-report"
        assert doc["version"] == 1
        assert doc["kind"] == "lint"
        assert doc["n_errors"] == 1
        assert doc["diagnostics"][0]["rule_id"] == "DATA001"
        assert doc["diagnostics"][0]["severity"] == "error"


class TestLoading:
    def _write(self, tmp_path, text):
        path = tmp_path / "data.csv"
        path.write_text(text)
        return path

    def test_unparseable_cells_become_nan(self, tmp_path):
        path = self._write(tmp_path, "a,b,CPI\n1,2,0.5\noops,3,0.7\n")
        t = load_table(path)
        assert t.attributes == ("a", "b")
        assert t.target_name == "CPI"
        assert np.isnan(t.X[1, 0])
        assert t.y[1] == 0.7

    def test_meta_columns_skipped(self, tmp_path):
        path = self._write(
            tmp_path, "#workload,a,CPI\nmcf,1.0,0.5\ngcc,2.0,0.7\n"
        )
        t = load_table(path)
        assert t.attributes == ("a",)
        assert t.n_instances == 2

    def test_structural_errors_raise_with_path(self, tmp_path):
        for text in ("", "only\n", "a,b,CPI\n", "a,b,CPI\n1,2\n"):
            path = self._write(tmp_path, text)
            with pytest.raises(ParseError) as excinfo:
                load_table(path)
            assert str(path) in str(excinfo.value)

    def test_as_table_passthrough_and_view(self, suite_dataset):
        t = as_table(suite_dataset)
        assert as_table(t) is t
        assert t.attributes == tuple(suite_dataset.attributes)
        assert t.n_instances == suite_dataset.n_instances


class TestInvariantTables:
    def test_check_dataset_reports_rows(self):
        columns = {"L1DM": [0.02, 0.01, 0.03], "L2M": [0.01, 0.05, 0.01]}
        violations = check_dataset(
            columns,
            applicable_invariants(METRIC_INVARIANTS, columns),
            check_negative=False,
        )
        assert len(violations) == 1
        assert violations[0].invariant == "metric-l2-exceeds-l1d"
        assert violations[0].rows == (1,)

    def test_negative_check(self):
        violations = check_dataset(
            {"L1DM": [0.02, -0.01]}, METRIC_INVARIANTS
        )
        assert any(v.invariant == "negative-L1DM" for v in violations)

    def test_tolerance_is_scale_aware(self):
        # equality within float noise passes at both count and ratio scales
        assert not check_dataset(
            {
                "MEM_LOAD_RETIRED.L2_LINE_MISS": [1000.0000001],
                "MEM_LOAD_RETIRED.L1D_LINE_MISS": [1000.0],
                "INST_RETIRED.LOADS": [2000.0],
                "INST_RETIRED.ANY": [5000.0],
                "CPU_CLK_UNHALTED.CORE": [6000.0],
            },
            RAW_COUNT_INVARIANTS,
        )
        assert not check_dataset(
            {"L1DM": [1e-7], "L2M": [1e-7 + 1e-15]},
            METRIC_INVARIANTS,
            check_negative=False,
        )

    def test_applicable_invariants_filters(self):
        subset = applicable_invariants(METRIC_INVARIANTS, ["L1DM", "L2M"])
        assert [inv.name for inv in subset] == ["metric-l2-exceeds-l1d"]


class TestFittedTreesLintClean:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        n=st.integers(min_value=12, max_value=120),
        min_instances=st.integers(min_value=4, max_value=30),
    )
    def test_fit_produces_lint_clean_tree(self, seed, n, min_instances):
        rng = np.random.default_rng(seed)
        X = rng.uniform(0.0, 1.0, size=(n, 3))
        y = (
            0.5
            + 2.0 * X[:, 0]
            + np.where(X[:, 1] > 0.5, 3.0, 0.0)
            + rng.normal(0.0, 0.05, size=n)
        )
        model = M5Prime(min_instances=min_instances).fit(
            X, y, ["f0", "f1", "f2"]
        )
        report = lint_model(model)
        assert report.is_clean, [d.render() for d in report.diagnostics]

    def test_save_load_lint_clean(self, suite_tree, suite_dataset, tmp_path):
        path = tmp_path / "model.json"
        save_model(suite_tree, path)
        loaded = load_model(path)
        assert lint_model(loaded).is_clean
        report = run_lint(model=loaded, dataset=suite_dataset)
        assert report.families == ("tree", "dataset", "compat", "verify")
        assert report.n_errors == 0
