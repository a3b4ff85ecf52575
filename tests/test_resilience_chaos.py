"""Chaos tests: execution under deterministic fault injection.

The contract under test is the resilience invariant: **any run that
completes — retried, resumed, or fault-ridden — is bit-identical to a
clean run.**  Every test here derives a fault-free baseline (with
``REPRO_FAULTS`` cleared) and compares faulty/resumed runs against it
exactly, never approximately.

The CI ``chaos`` job runs this file with ``REPRO_JOBS=2`` and
``REPRO_EXECUTOR`` set to each backend in turn, so every policy-driven
map runs serially, on two threads and on two processes.  Tests therefore
avoid assumptions that only hold for one executor: each sets its own
``REPRO_FAULTS`` spec (an ambient one is cleared), chosen so the
deterministic decisions work out under both serial and per-process
occurrence counting.
"""

import json

import numpy as np
import pytest

from repro.baselines import LinearRegressionBaseline
from repro.cli import main
from repro.errors import RetryExhaustedError
from repro.evaluation import cross_validate
from repro.parallel import ArtifactCache
from repro.resilience import FailPolicy, RetryPolicy, RunPolicy
from repro.resilience.faults import FAULTS_ENV, reset_faults
from repro.workloads import simulate_suite

SUITE_KW = dict(
    sections_per_workload=3, instructions_per_section=256, seed=9
)


@pytest.fixture(autouse=True)
def _fault_isolation(monkeypatch):
    """Start and end every test without an active fault plan."""
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    reset_faults()
    yield
    reset_faults()


def _without_faults(fn):
    """Run ``fn()`` with fault injection disabled (for baselines).

    Class- and module-scoped fixtures instantiate *before* the
    per-test isolation fixture, so under the CI chaos job's ambient
    ``REPRO_FAULTS`` they must shield themselves.
    """
    with pytest.MonkeyPatch.context() as mp:
        mp.delenv(FAULTS_ENV, raising=False)
        reset_faults()
        result = fn()
    reset_faults()
    return result


@pytest.fixture(scope="module")
def suite_dataset():
    """Fault-free override of the session-wide suite dataset fixture."""
    return _without_faults(
        lambda: simulate_suite(
            sections_per_workload=12, instructions_per_section=384, seed=3
        ).dataset
    )


def _set_faults(monkeypatch, spec):
    monkeypatch.setenv(FAULTS_ENV, spec)
    reset_faults()


def _clear_faults(monkeypatch):
    monkeypatch.delenv(FAULTS_ENV, raising=False)
    reset_faults()


def _policy(max_attempts, fail_policy="fail_fast", checkpoint=None,
            run_key=None, resume=False):
    return RunPolicy(
        retry=RetryPolicy(max_attempts=max_attempts, base_delay=0.0),
        fail_policy=FailPolicy.parse(fail_policy),
        checkpoint=checkpoint,
        run_key=run_key,
        resume=resume,
    )


# ---------------------------------------------------------------------------
# Suite simulation under faults
# ---------------------------------------------------------------------------
class TestSuiteChaos:
    @pytest.fixture(scope="class")
    def baseline(self):
        return _without_faults(lambda: simulate_suite(**SUITE_KW))

    @pytest.mark.parametrize(
        "fail_policy", ["fail_fast", "collect_errors", "min_success:0.5"]
    )
    def test_completed_run_is_bit_identical(
        self, monkeypatch, baseline, fail_policy
    ):
        # sim:0.3,seed=11 clears within 8 attempts for every workload,
        # so the run completes under every policy.
        _set_faults(monkeypatch, "sim:0.3,seed=11")
        result = simulate_suite(
            **SUITE_KW, policy=_policy(8, fail_policy)
        )
        assert result.failures == []
        np.testing.assert_array_equal(result.dataset.X, baseline.dataset.X)
        np.testing.assert_array_equal(result.dataset.y, baseline.dataset.y)

    def test_collect_errors_partial_rows_match_baseline(
        self, monkeypatch, baseline
    ):
        # sim:0.97,seed=2 fails 9 of 11 workloads on their only attempt.
        _set_faults(monkeypatch, "sim:0.97,seed=2")
        result = simulate_suite(
            **SUITE_KW, policy=_policy(1, "collect_errors")
        )
        assert result.failures
        survivors = set(result.dataset.meta["workload"])
        assert survivors  # and the run still produced data
        failed = {f.key.replace("wl-", "") for f in result.failures}
        assert survivors.isdisjoint(failed)
        # Every surviving workload's rows are exactly the clean rows.
        base_mask = np.isin(
            np.asarray(baseline.dataset.meta["workload"]), sorted(survivors)
        )
        np.testing.assert_array_equal(
            result.dataset.X, baseline.dataset.X[base_mask]
        )
        np.testing.assert_array_equal(
            result.dataset.y, baseline.dataset.y[base_mask]
        )

    def test_fail_fast_aborts(self, monkeypatch):
        _set_faults(monkeypatch, "sim:1.0")
        with pytest.raises(RetryExhaustedError):
            simulate_suite(**SUITE_KW, policy=_policy(2))


# ---------------------------------------------------------------------------
# Cross validation under faults
# ---------------------------------------------------------------------------
class TestCrossValidationChaos:
    N_FOLDS = 5

    @pytest.fixture(scope="class")
    def baseline(self, suite_dataset):
        return _without_faults(lambda: cross_validate(
            LinearRegressionBaseline, suite_dataset,
            n_folds=self.N_FOLDS, rng=0,
        ))

    @pytest.mark.parametrize(
        "fail_policy", ["fail_fast", "collect_errors", "min_success:0.5"]
    )
    def test_completed_run_is_bit_identical(
        self, monkeypatch, suite_dataset, baseline, fail_policy
    ):
        _set_faults(monkeypatch, "fold:0.3,seed=11")
        result = cross_validate(
            LinearRegressionBaseline, suite_dataset,
            n_folds=self.N_FOLDS, rng=0, policy=_policy(8, fail_policy),
        )
        assert result.failures == []
        np.testing.assert_array_equal(result.predictions, baseline.predictions)
        assert result.mean.to_dict() == baseline.mean.to_dict()
        assert result.pooled.to_dict() == baseline.pooled.to_dict()

    def test_collect_errors_covers_completed_folds_exactly(
        self, monkeypatch, suite_dataset, baseline
    ):
        # fold:0.9,seed=5 fails folds 0, 2, 3, 4 on their only attempt.
        _set_faults(monkeypatch, "fold:0.9,seed=5")
        result = cross_validate(
            LinearRegressionBaseline, suite_dataset,
            n_folds=self.N_FOLDS, rng=0, policy=_policy(1, "collect_errors"),
        )
        assert [f.key for f in result.failures] == [
            "fold-000", "fold-002", "fold-003", "fold-004"
        ]
        assert result.n_folds == 1
        covered = np.isfinite(result.predictions)
        assert covered.any() and not covered.all()
        # Completed folds predict exactly what the clean run predicted.
        np.testing.assert_array_equal(
            result.predictions[covered], baseline.predictions[covered]
        )

    def test_min_success_floor_aborts_run(self, monkeypatch, suite_dataset):
        _set_faults(monkeypatch, "fold:1.0")
        with pytest.raises(RetryExhaustedError, match="succeeded"):
            cross_validate(
                LinearRegressionBaseline, suite_dataset,
                n_folds=self.N_FOLDS, rng=0,
                policy=_policy(1, "min_success:0.5"),
            )


# ---------------------------------------------------------------------------
# Checkpoint/resume: killed runs continue bit-identically
# ---------------------------------------------------------------------------
class TestResume:
    def test_crashed_collect_resumes_bit_identically(
        self, monkeypatch, tmp_path, capsys
    ):
        clean_csv = tmp_path / "clean.csv"
        crash_csv = tmp_path / "crash.csv"
        argv = ["collect", "--out", None, "--sections", "3",
                "--instructions", "256", "--seed", "9"]

        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-clean"))
        argv[2] = str(clean_csv)
        assert main(list(argv)) == 0

        # "Kill" a run part-way: sim:0.35,seed=5 spares the first
        # workload but aborts the run (fail_fast, one attempt) later,
        # leaving the completed workloads checkpointed.
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache-crash"))
        _set_faults(monkeypatch, "sim:0.35,seed=5")
        argv[2] = str(crash_csv)
        assert main(list(argv) + ["--retries", "1"]) == 2
        assert "error:" in capsys.readouterr().err
        assert not crash_csv.exists()
        cache = ArtifactCache()
        assert sum(cache.checkpoint_runs().values()) >= 1  # durable progress

        # Resume without faults: completes and matches the clean bytes.
        _clear_faults(monkeypatch)
        assert main(list(argv) + ["--resume"]) == 0
        assert crash_csv.read_bytes() == clean_csv.read_bytes()

    def test_crashed_evaluate_resumes_bit_identically(
        self, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        csv = tmp_path / "sections.csv"
        assert main(["collect", "--out", str(csv), "--sections", "3",
                     "--instructions", "256", "--seed", "9"]) == 0
        capsys.readouterr()
        argv = ["evaluate", "--data", str(csv), "--learner", "ols",
                "--folds", "5", "--format", "json"]
        assert main(list(argv)) == 0
        clean_out = capsys.readouterr().out

        # fold:0.6,seed=4 spares fold-000 and kills fold-002 (fail_fast).
        _set_faults(monkeypatch, "fold:0.6,seed=4")
        assert main(list(argv) + ["--retries", "1"]) == 2
        capsys.readouterr()

        _clear_faults(monkeypatch)
        assert main(list(argv) + ["--resume"]) == 0
        assert capsys.readouterr().out == clean_out

    def test_resume_with_unreadable_checkpoints_recomputes(
        self, monkeypatch, tmp_path
    ):
        # cache_read:1.0 makes every stored unit a miss; the resumed
        # run recomputes everything and must still be bit-identical.
        cache = ArtifactCache(tmp_path / "ckpt")
        baseline = simulate_suite(**SUITE_KW)
        first = simulate_suite(**SUITE_KW, policy=_policy(
            1, checkpoint=cache, run_key="suite-chaos"
        ))
        assert cache.checkpoint_runs() == {"suite-chaos": 11}
        _set_faults(monkeypatch, "cache_read:1.0")
        resumed = simulate_suite(**SUITE_KW, policy=_policy(
            1, checkpoint=cache, run_key="suite-chaos", resume=True
        ))
        for result in (first, resumed):
            np.testing.assert_array_equal(
                result.dataset.X, baseline.dataset.X
            )
            np.testing.assert_array_equal(
                result.dataset.y, baseline.dataset.y
            )


# ---------------------------------------------------------------------------
# Cache corruption
# ---------------------------------------------------------------------------
class TestCacheChaos:
    def test_corrupted_entry_quarantined_and_recomputed(self, tmp_path):
        from repro.experiments import ExperimentConfig
        from repro.experiments.data import artifact_cache, suite_dataset

        config = ExperimentConfig(
            name="chaos", sections_per_workload=3,
            instructions_per_section=256, min_instances=5, n_folds=2,
        )
        cache_dir = tmp_path / "artifacts"
        first = suite_dataset(config, cache_dir=cache_dir)

        cache = artifact_cache(cache_dir)
        (entry,) = cache._entries()
        entry.write_bytes(b"garbage,where,a,dataset,should,be\n")

        import repro.experiments.data as data_module
        data_module._MEMORY_CACHE.clear()
        with pytest.warns(RuntimeWarning, match="quarantin"):
            second = suite_dataset(config, cache_dir=cache_dir)
        np.testing.assert_array_equal(second.X, first.X)
        np.testing.assert_array_equal(second.y, first.y)
        assert cache._quarantined()  # corruption kept for autopsy
        assert cache.info().n_quarantined >= 1

    def test_cache_read_fault_degrades_to_miss(self, monkeypatch, tmp_path):
        from repro.parallel.cache import ArtifactCache

        cache = ArtifactCache(tmp_path / "artifacts")
        baseline = simulate_suite(**SUITE_KW)
        cache.store_dataset(["chaos-key"], baseline.dataset)
        _set_faults(monkeypatch, "cache_read:1.0")
        assert cache.load_dataset(["chaos-key"]) is None
        _clear_faults(monkeypatch)
        reloaded = cache.load_dataset(["chaos-key"])
        np.testing.assert_array_equal(reloaded.X, baseline.dataset.X)


# ---------------------------------------------------------------------------
# Method comparison under faults (the ISSUE acceptance scenario)
# ---------------------------------------------------------------------------
class TestCompareChaos:
    def test_min_success_compare_reports_failed_units(
        self, monkeypatch, tmp_path, capsys
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        csv = tmp_path / "sections.csv"
        assert main(["collect", "--out", str(csv), "--sections", "4",
                     "--instructions", "256", "--seed", "3"]) == 0
        capsys.readouterr()

        # fold:0.35,seed=22 injects >10% unit failures for one-attempt
        # folds but leaves every method above the 0.5 success floor.
        _set_faults(monkeypatch, "fold:0.35,seed=22")
        rc = main([
            "compare", "--data", str(csv), "--folds", "3",
            "--retries", "1", "--fail-policy", "min_success:0.5",
            "--format", "json",
        ])
        assert rc == 0
        document = json.loads(capsys.readouterr().out)
        assert document["kind"] == "compare"
        assert document["methods"]  # the comparison completed
        failed = document["failed_units"]
        assert len(failed) >= 2
        for unit in failed:
            assert unit["error"] and unit["unit"]
