"""Tests for the command-line interface."""

import pytest

from repro.cli import build_parser, main


@pytest.fixture
def dataset_csv(tmp_path, suite_dataset):
    from repro.datasets.csvio import save_csv

    path = tmp_path / "sections.csv"
    save_csv(suite_dataset, path)
    return str(path)


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_collect_args(self):
        args = build_parser().parse_args(["collect", "--out", "x.csv"])
        assert args.command == "collect"
        assert args.sections == 120

    @pytest.mark.parametrize("argv, message", [
        (["bench"], "invalid choice: 'bench'"),
        (["report", "--out", "r.md"], "invalid choice: 'report'"),
        (["verify", "--corpus", "quick"],
         "unrecognized arguments: --corpus quick"),
    ], ids=["bench", "report", "verify-corpus"])
    def test_folded_commands_are_gone(self, argv, message, capsys):
        # Timings live in benchmarks/, the markdown report is
        # `experiments --out`, and the corpus check is `conformance`.
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


class TestCommands:
    def test_workloads(self, capsys):
        assert main(["workloads"]) == 0
        out = capsys.readouterr().out
        assert "mcf_like" in out
        assert "cactus_like" in out

    def test_collect_and_train(self, tmp_path, capsys):
        out_csv = str(tmp_path / "d.csv")
        assert main([
            "collect", "--out", out_csv, "--sections", "6",
            "--instructions", "256", "--seed", "5", "--arff",
        ]) == 0
        assert (tmp_path / "d.arff").exists()
        capsys.readouterr()
        assert main(["train", "--data", out_csv, "--min-instances", "8"]) == 0
        out = capsys.readouterr().out
        assert "LM1" in out
        assert "leaves" in out

    def test_analyze_summary(self, dataset_csv, capsys):
        assert main(["analyze", "--data", dataset_csv, "--min-instances", "12"]) == 0
        out = capsys.readouterr().out
        assert "LM" in out

    def test_analyze_single_section(self, dataset_csv, capsys):
        assert main([
            "analyze", "--data", dataset_csv, "--min-instances", "12",
            "--section", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "class: LM" in out

    def test_analyze_section_out_of_range(self, dataset_csv, capsys):
        assert main([
            "analyze", "--data", dataset_csv, "--section", "99999",
        ]) == 2
        assert "error:" in capsys.readouterr().err

    def test_evaluate(self, dataset_csv, capsys):
        assert main([
            "evaluate", "--data", dataset_csv, "--learner", "ols", "--folds", "4",
        ]) == 0
        assert "cross validation" in capsys.readouterr().out

    def test_evaluate_m5p(self, dataset_csv, capsys):
        assert main([
            "evaluate", "--data", dataset_csv, "--learner", "m5p",
            "--folds", "4", "--min-instances", "12",
        ]) == 0
        assert "C=" in capsys.readouterr().out

    def test_experiments_list(self, capsys):
        assert main(["experiments", "--list"]) == 0
        out = capsys.readouterr().out
        assert "F2" in out
        assert "A4" in out

    def test_experiments_single(self, capsys):
        assert main(["experiments", "--id", "T1", "--preset", "tiny"]) == 0
        out = capsys.readouterr().out
        assert "Table I" in out

    def test_missing_file_reports_error(self, capsys):
        assert main(["train", "--data", "/nonexistent/x.csv"]) != 0


class TestNewCommands:
    def test_train_save_and_rules(self, dataset_csv, tmp_path, capsys):
        model_path = str(tmp_path / "model.json")
        assert main([
            "train", "--data", dataset_csv, "--min-instances", "12",
            "--save", model_path, "--rules",
        ]) == 0
        out = capsys.readouterr().out
        assert "RULE 1" in out
        assert "saved model" in out
        import json

        with open(model_path) as handle:
            payload = json.load(handle)
        assert payload["format"] == "repro-m5prime"

    def test_analyze_with_saved_model(self, dataset_csv, tmp_path, capsys):
        model_path = str(tmp_path / "model.json")
        main(["train", "--data", dataset_csv, "--min-instances", "12",
              "--save", model_path])
        capsys.readouterr()
        assert main([
            "analyze", "--data", dataset_csv, "--model", model_path,
            "--section", "0",
        ]) == 0
        assert "class: LM" in capsys.readouterr().out

    def test_report_tiny(self, tmp_path, capsys):
        out_path = str(tmp_path / "report.md")
        # Tiny preset may fail shape checks; any of 0/1 is acceptable here,
        # what matters is that the report file is complete.
        code = main(["experiments", "--preset", "tiny", "--out", out_path])
        assert code in (0, 1)
        out = capsys.readouterr().out
        assert "=== T1:" in out and out.rstrip().endswith(f"wrote {out_path}")
        text = open(out_path).read()
        assert text.startswith("# Reproduction report\n\npreset: `tiny`")
        assert "## T1" in text
        assert "## E3" in text

    def test_evaluate_residuals(self, dataset_csv, capsys):
        assert main([
            "evaluate", "--data", dataset_csv, "--learner", "m5p",
            "--folds", "4", "--min-instances", "12", "--residuals",
        ]) == 0
        out = capsys.readouterr().out
        assert "by workload:" in out
        assert "by tree class:" in out


class TestResilienceCli:
    """The fault-tolerance surface: flags, faults command, exit codes."""

    def test_resilience_flags_parse(self):
        args = build_parser().parse_args([
            "evaluate", "--data", "x.csv", "--resume",
            "--fail-policy", "min_success:0.8",
            "--task-timeout", "30", "--retries", "5",
        ])
        assert args.resume is True
        assert args.fail_policy == "min_success:0.8"
        assert args.task_timeout == 30.0
        assert args.retries == 5

    def test_resilience_flag_defaults(self):
        args = build_parser().parse_args(["compare", "--data", "x.csv"])
        assert args.resume is False
        assert args.fail_policy == "fail_fast"
        assert args.task_timeout is None
        assert args.retries == 3

    def test_faults_inactive(self, monkeypatch, capsys):
        monkeypatch.delenv("REPRO_FAULTS", raising=False)
        assert main(["faults"]) == 0
        out = capsys.readouterr().out
        assert "inactive" in out
        assert "sim" in out and "cache_write" in out

    def test_faults_describe_spec(self, capsys):
        assert main(["faults", "--spec", "sim:0.2,seed=7"]) == 0
        out = capsys.readouterr().out
        assert "seed 7" in out and "20.0%" in out

    def test_faults_env_spec(self, monkeypatch, capsys):
        from repro.resilience.faults import reset_faults

        monkeypatch.setenv("REPRO_FAULTS", "fold:0.5")
        reset_faults()
        assert main(["faults"]) == 0
        assert "fold" in capsys.readouterr().out
        monkeypatch.delenv("REPRO_FAULTS")
        reset_faults()

    def test_checkpoint_fault_sites_are_gone(self, capsys):
        # Checkpoint I/O fires the artifact cache's own sites.
        for site in ("checkpoint_" + io for io in ("read", "write")):
            assert main(["faults", "--spec", f"{site}:0.1"]) == 2
            assert "unknown fault site" in capsys.readouterr().err

    def test_bad_fault_spec_is_clean_single_line_error(self, capsys):
        assert main(["faults", "--spec", "warp_core:0.5"]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert "unknown fault site" in err
        assert len(err.strip().splitlines()) == 1

    def test_bad_fail_policy_is_clean_error(self, dataset_csv, capsys):
        assert main([
            "evaluate", "--data", dataset_csv, "--fail-policy", "bogus",
        ]) == 2
        assert "unknown failure policy" in capsys.readouterr().err

    def test_keyboard_interrupt_exits_130(self, monkeypatch, capsys):
        from repro import cli

        def interrupted(args):
            raise KeyboardInterrupt

        monkeypatch.setitem(cli._COMMANDS, "workloads", interrupted)
        assert main(["workloads"]) == 130
        err = capsys.readouterr().err
        assert "interrupted" in err
        assert "--resume" in err
        assert len(err.strip().splitlines()) == 1

    def test_multiline_error_collapsed_to_one_line(self, monkeypatch, capsys):
        from repro import cli
        from repro.errors import ReproError

        def failing(args):
            raise ReproError("first line\nsecond line\nthird")

        monkeypatch.setitem(cli._COMMANDS, "workloads", failing)
        assert main(["workloads"]) == 2
        err = capsys.readouterr().err
        assert len(err.strip().splitlines()) == 1
        assert "first line second line third" in err

    def test_cache_info_lists_checkpoint_runs(self, monkeypatch, tmp_path, capsys):
        from repro.parallel import ArtifactCache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = ArtifactCache()
        cache.store_checkpoint("demo-run", "unit-a", {"x": 1})
        cache.store_checkpoint("demo-run", "unit-b", {"x": 2})
        cache.store_checkpoint("other-run", "unit-a", {"x": 3})
        # An unreadable document is left out, not a crash.
        cache.store_checkpoint("other-run", "unit-b", {}).write_text("{")
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "demo-run  (2 unit(s))" in out
        assert "other-run  (1 unit(s))" in out

    def test_cache_clear_removes_checkpoints(self, monkeypatch, tmp_path, capsys):
        from repro.parallel import ArtifactCache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = ArtifactCache()
        cache.store_checkpoint("demo-run", "unit-a", {"x": 1})
        assert main(["cache", "clear"]) == 0
        assert "checkpoints included" in capsys.readouterr().out
        assert cache.checkpoint_runs() == {}
        assert main(["cache", "info"]) == 0
        assert "no checkpoint runs" in capsys.readouterr().out

    def test_evaluate_completes_when_cache_writes_fail(
        self, monkeypatch, tmp_path, dataset_csv, capsys
    ):
        # A failed checkpoint write degrades to an uncached unit; it
        # must never fail the fold that produced the result.
        from repro.parallel import ArtifactCache
        from repro.resilience.faults import reset_faults

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        argv = ["evaluate", "--data", dataset_csv, "--learner", "ols",
                "--folds", "3", "--format", "json"]
        assert main(argv) == 0
        clean = capsys.readouterr().out
        ArtifactCache().clear()
        monkeypatch.setenv("REPRO_FAULTS", "cache_write:1.0")
        reset_faults()
        try:
            with pytest.warns(RuntimeWarning, match="continuing uncached"):
                assert main(argv + ["--retries", "1"]) == 0
        finally:
            monkeypatch.delenv("REPRO_FAULTS")
            reset_faults()
        assert capsys.readouterr().out == clean
        assert ArtifactCache().checkpoint_runs() == {}

    def test_evaluate_json_includes_failed_units_key(self, dataset_csv, capsys):
        import json

        assert main([
            "evaluate", "--data", dataset_csv, "--learner", "ols",
            "--folds", "3", "--format", "json",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["failed_units"] == []

    def test_compare_json_envelope(self, dataset_csv, capsys):
        import json

        assert main([
            "compare", "--data", dataset_csv, "--folds", "3",
            "--min-instances", "12", "--format", "json",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "compare"
        assert document["format"] == "repro-report"
        assert set(document["ranking"]) == set(document["methods"])
        assert document["failed_units"] == []


class TestConformanceCommands:
    def test_conformance_quick_subset(self, capsys):
        assert main([
            "conformance", "--max-cases", "3", "--skip-metamorphic",
        ]) == 0
        out = capsys.readouterr().out
        assert "conformant" in out
        assert "3 case(s)" in out

    def test_conformance_json_envelope(self, capsys):
        import json

        assert main([
            "conformance", "--max-cases", "2", "--skip-metamorphic",
            "--format", "json",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["format"] == "repro-report"
        assert document["kind"] == "conformance"
        assert document["clean"] is True
        assert document["n_cases"] == 2

    def test_fuzz_smoke(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main(["fuzz", "--iterations", "12", "--seed", "5"]) == 0
        out = capsys.readouterr().out
        assert "0 crash(es)" in out

    def test_fuzz_single_target_json(self, tmp_path, monkeypatch, capsys):
        import json

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        assert main([
            "fuzz", "--target", "csv", "--iterations", "10",
            "--format", "json",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "conformance"
        assert document["clean"] is True
