"""Tests for benchmarks/compare.py (CI gate), benchmarks/pairs.py and
`repro cache`."""

import importlib.util
import json
from pathlib import Path

import pytest


def _load_benchmarks_module(name):
    path = Path(__file__).resolve().parent.parent / "benchmarks" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"bench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _load_compare_module():
    return _load_benchmarks_module("compare")


class TestCompareScript:
    @pytest.fixture(scope="class")
    def compare(self):
        return _load_compare_module()

    def _write(self, path, entries, schema="repro"):
        if schema == "repro":
            payload = {
                "benchmarks": [
                    {"name": n, "mean_s": m} for n, m in entries.items()
                ]
            }
        else:  # pytest-benchmark layout
            payload = {
                "benchmarks": [
                    {"name": n, "stats": {"mean": m}} for n, m in entries.items()
                ]
            }
        path.write_text(json.dumps(payload))
        return str(path)

    def test_within_tolerance_passes(self, compare, tmp_path):
        current = self._write(tmp_path / "c.json", {"fit": 1.2})
        baseline = self._write(tmp_path / "b.json", {"fit": 1.0})
        assert compare.main([current, baseline, "--tolerance", "0.30"]) == 0

    def test_regression_fails(self, compare, tmp_path):
        current = self._write(tmp_path / "c.json", {"fit": 1.5})
        baseline = self._write(tmp_path / "b.json", {"fit": 1.0})
        assert compare.main([current, baseline, "--tolerance", "0.30"]) == 1

    def test_improvement_passes(self, compare, tmp_path):
        current = self._write(tmp_path / "c.json", {"fit": 0.2})
        baseline = self._write(tmp_path / "b.json", {"fit": 1.0})
        assert compare.main([current, baseline]) == 0

    def test_new_benchmark_passes(self, compare, tmp_path):
        current = self._write(tmp_path / "c.json", {"fit": 1.0, "new": 9.0})
        baseline = self._write(tmp_path / "b.json", {"fit": 1.0})
        assert compare.main([current, baseline]) == 0

    def test_pytest_benchmark_schema(self, compare, tmp_path):
        current = self._write(
            tmp_path / "c.json", {"fit": 2.0}, schema="pytest"
        )
        baseline = self._write(tmp_path / "b.json", {"fit": 1.0})
        assert compare.main([current, baseline]) == 1

    def test_update_rewrites_baseline(self, compare, tmp_path):
        current = self._write(tmp_path / "c.json", {"fit": 2.0})
        baseline = tmp_path / "b.json"
        assert compare.main([current, str(baseline), "--update"]) == 0
        means = compare.load_means(str(baseline))
        assert means == {"fit": 2.0}

    def test_checked_in_baseline_parses(self, compare):
        baseline = (
            Path(__file__).resolve().parent.parent / "benchmarks" / "baseline.json"
        )
        means = compare.load_means(str(baseline))
        assert means and all(m > 0 for m in means.values())


class TestPairsScript:
    """The pure parts of benchmarks/pairs.py, the BENCH pair runner."""

    @pytest.fixture(scope="class")
    def pairs(self):
        return _load_benchmarks_module("pairs")

    def test_quartiles_interpolate_linearly(self, pairs):
        assert pairs.quartiles([4.0, 1.0, 3.0, 2.0]) == (1.75, 2.5, 3.25)
        assert pairs.quartiles([7.0]) == (7.0, 7.0, 7.0)

    def test_run_order_alternates(self, pairs):
        assert pairs.first_side(0) == ("parent", "change")
        assert pairs.first_side(1) == ("change", "parent")
        assert pairs.first_side(2) == ("parent", "change")

    def test_compare_metric_counts_pairs_and_bound(self, pairs):
        parent = {"1": 10.0, "2": 12.0, "3": 11.0}
        change = {"1": 9.0, "2": 12.0, "3": 13.0}
        entry = pairs.compare_metric(parent, change, "s", "lower", bound=0.24)
        assert entry["parent"]["median"] == 11.0
        assert entry["change"]["runs"] == change
        assert entry["change_vs_parent_pct"] == pytest.approx(100 / 11)
        assert entry["pairs_won"] == "1/3"
        assert entry["pairs_identical"] == "1/3"
        assert entry["bound_pct"] == 24.0
        assert entry["within_bound"] is True
        worse = pairs.compare_metric(parent, {k: 14.0 for k in parent}, "s", "lower", 0.24)
        assert worse["within_bound"] is False
        higher = pairs.compare_metric(parent, {k: 8.0 for k in parent}, "1/s", "higher", 0.24)
        assert higher["pairs_won"] == "0/3" and higher["within_bound"] is False
        assert "bound_pct" not in pairs.compare_metric(parent, change, "s", "lower")

    def test_claim_needs_nine_tenths_and_more_than_the_iqr(self, pairs):
        parent = {str(s): 6.0 + 0.1 * (s % 3) for s in range(10)}
        faster = {s: v - 1.0 for s, v in parent.items()}
        verdict = pairs.claim_verdict(pairs.compare_metric(parent, faster, "s", "lower"))
        assert verdict["met"] and verdict["pairs_won"] == "10/10"
        assert verdict["median_difference"] == pytest.approx(1.0)
        one_lost = dict(faster, **{"0": 6.5})
        assert pairs.claim_verdict(pairs.compare_metric(parent, one_lost, "s", "lower"))["met"]
        two_lost = dict(one_lost, **{"1": 6.5})
        assert not pairs.claim_verdict(pairs.compare_metric(parent, two_lost, "s", "lower"))["met"]
        within_iqr = {s: v - 0.05 for s, v in parent.items()}
        assert not pairs.claim_verdict(pairs.compare_metric(parent, within_iqr, "s", "lower"))["met"]
        slower = {s: v + 1.0 for s, v in parent.items()}
        assert not pairs.claim_verdict(pairs.compare_metric(parent, slower, "s", "lower"))["met"]

    def test_collect_groups_runs_by_side_and_seed(self, pairs):
        def run(side, seed, wall, trace=0):
            return {
                "side": side, "workload": "paper_pipeline", "seed": seed, "trace": trace,
                "result": {"failed": 0, "attempted": 1,
                           "metrics": {"wall_s": {"value": wall, "unit": "s"}}},
            }

        runs = [run("parent", 2, 6.0), run("change", 1, 5.0), run("parent", 1, 6.5),
                run("change", 2, 5.5), run("change", 3, 1.0, trace=1)]
        declared = [{"name": "wall_s", "unit": "s", "better": "lower", "bound": 0.24},
                    {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}]
        section = pairs.collect(runs, "paper_pipeline", 0, declared, bounds=True)
        assert section["seeds"] == [1, 2]
        assert list(section["metrics"]) == ["wall_s"]
        assert section["metrics"]["wall_s"]["parent"]["runs"] == {"1": 6.5, "2": 6.0}
        assert section["metrics"]["wall_s"]["pairs_won"] == "2/2"
        assert section["attempted"] == {"parent": [1, 1], "change": [1, 1]}
        traced = pairs.collect(runs, "paper_pipeline", 1, declared, bounds=False)
        assert traced["seeds"] == [3] and traced["metrics"] == {}

    def test_parse_spec_and_result_line(self, pairs):
        assert pairs.parse_spec("model_sweep:3:3101") == ("model_sweep", 3, 3101)
        with pytest.raises(ValueError):
            pairs.parse_spec("model_sweep:0:1")
        out = 'workload x\n  wall_s 1 s\n{"correct": true, "failed": 0}\n'
        assert pairs.last_json_line(out) == {"correct": True, "failed": 0}
        with pytest.raises(ValueError):
            pairs.last_json_line("no result\n")


class TestCliBenchAndCache:
    def test_cache_info_and_clear(self, tmp_path, capsys, monkeypatch):
        from repro.cli import main
        from repro.experiments.data import artifact_cache

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        cache = artifact_cache()
        from tests.test_parallel_exec import _tiny_dataset

        cache.store_dataset(["k"], _tiny_dataset())
        assert main(["cache", "info"]) == 0
        out = capsys.readouterr().out
        assert "entries: 1" in out
        assert main(["cache", "clear"]) == 0
        assert "removed 1" in capsys.readouterr().out
        assert cache.info().n_entries == 0
