"""Unit tests for the execution layer: executors, seeding, artifact cache."""

import numpy as np
import pytest

from repro.datasets.dataset import Dataset
from repro.errors import ConfigError, ReproError
from repro.parallel import (
    ArtifactCache,
    parallel_map,
    resolve_executor,
    resolve_jobs,
    spawn_seeds,
)
from repro.parallel.executor import EXECUTOR_ENV, JOBS_ENV


def _square(x):
    return x * x


class TestResolveJobs:
    def test_default_is_serial(self, monkeypatch):
        monkeypatch.delenv(JOBS_ENV, raising=False)
        assert resolve_jobs(None) == 1

    def test_explicit_count(self):
        assert resolve_jobs(3) == 3

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "5")
        assert resolve_jobs(None) == 5

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "5")
        assert resolve_jobs(2) == 2

    def test_all_cores(self):
        assert resolve_jobs(-1) >= 1

    def test_env_all_cores(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "-1")
        assert resolve_jobs(None) >= 1

    @pytest.mark.parametrize("bad", [0, -2, 1.5, "two"])
    def test_invalid_counts(self, bad):
        with pytest.raises(ConfigError):
            resolve_jobs(bad)

    def test_invalid_env(self, monkeypatch):
        monkeypatch.setenv(JOBS_ENV, "many")
        with pytest.raises(ConfigError):
            resolve_jobs(None)


class TestResolveExecutor:
    def test_serial_for_one_worker(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV, raising=False)
        assert resolve_executor(None, 1) == "serial"

    def test_processes_for_many(self, monkeypatch):
        monkeypatch.delenv(EXECUTOR_ENV, raising=False)
        assert resolve_executor(None, 4) == "processes"

    def test_env_override(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "threads")
        assert resolve_executor(None, 4) == "threads"

    def test_explicit_beats_env(self, monkeypatch):
        monkeypatch.setenv(EXECUTOR_ENV, "threads")
        assert resolve_executor("serial", 4) == "serial"

    def test_unknown_kind(self):
        with pytest.raises(ConfigError):
            resolve_executor("cloud", 2)


class TestParallelMap:
    def test_serial_matches_loop(self):
        assert parallel_map(_square, range(7), n_jobs=1) == [
            x * x for x in range(7)
        ]

    @pytest.mark.parametrize("executor", ["threads", "processes"])
    def test_parallel_preserves_order(self, executor):
        result = parallel_map(_square, range(11), n_jobs=2, executor=executor)
        assert result == [x * x for x in range(11)]

    def test_empty_items(self):
        assert parallel_map(_square, [], n_jobs=4) == []

    def test_unpicklable_task_falls_back(self):
        captured = []
        with pytest.warns(RuntimeWarning, match="not picklable"):
            result = parallel_map(
                lambda x: captured.append(x) or x + 1,
                [1, 2, 3],
                n_jobs=2,
                executor="processes",
            )
        assert result == [2, 3, 4]
        assert sorted(captured) == [1, 2, 3]

    def test_exceptions_propagate(self):
        def boom(x):
            raise ValueError(f"bad {x}")

        with pytest.raises(ValueError, match="bad 0"):
            parallel_map(boom, [0, 1], n_jobs=1)


class TestSpawnSeeds:
    def test_deterministic_for_int(self):
        a = [s.generate_state(2).tolist() for s in spawn_seeds(7, 3)]
        b = [s.generate_state(2).tolist() for s in spawn_seeds(7, 3)]
        assert a == b

    def test_children_differ(self):
        states = {tuple(s.generate_state(2)) for s in spawn_seeds(7, 5)}
        assert len(states) == 5

    def test_generator_spawning_deterministic(self):
        a = spawn_seeds(np.random.default_rng(3), 2)
        b = spawn_seeds(np.random.default_rng(3), 2)
        assert [s.generate_state(1)[0] for s in a] == [
            s.generate_state(1)[0] for s in b
        ]

    def test_seed_sequence_input(self):
        root = np.random.SeedSequence(11)
        assert len(spawn_seeds(root, 4)) == 4


def _tiny_dataset():
    rng = np.random.default_rng(0)
    X = rng.normal(size=(30, 3))
    y = X @ np.array([1.0, -2.0, 0.5]) + rng.normal(scale=0.1, size=30)
    return Dataset(X, y, ["a", "b", "c"], meta={"workload": ["w"] * 30})


class TestArtifactCache:
    def test_path_is_deterministic(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.path_for("dataset", ["x", 1]) == cache.path_for(
            "dataset", ["x", 1]
        )

    def test_key_change_changes_path(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.path_for("dataset", ["x", 1]) != cache.path_for(
            "dataset", ["x", 2]
        )

    def test_kind_namespaces_digest(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert (
            cache.path_for("dataset", ["k"]).stem
            != cache.path_for("model", ["k"]).stem
        )

    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ReproError):
            ArtifactCache(tmp_path).path_for("weights", ["k"])

    def test_dataset_round_trip(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        dataset = _tiny_dataset()
        assert cache.load_dataset(["k"]) is None
        cache.store_dataset(["k"], dataset)
        loaded = cache.load_dataset(["k"])
        assert np.allclose(loaded.X, dataset.X)
        assert np.allclose(loaded.y, dataset.y)
        assert list(loaded.meta["workload"]) == ["w"] * 30

    def test_model_round_trip(self, tmp_path):
        from repro.core.tree import M5Prime

        cache = ArtifactCache(tmp_path)
        dataset = _tiny_dataset()
        model = M5Prime(min_instances=5).fit(dataset)
        assert cache.load_model(["m"]) is None
        cache.store_model(["m"], model)
        loaded = cache.load_model(["m"])
        assert np.array_equal(loaded.predict(dataset.X), model.predict(dataset.X))

    def test_corrupt_entry_is_a_miss(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        cache.store_dataset(["k"], _tiny_dataset())
        path = cache.path_for("dataset", ["k"])
        path.write_text("not,a,valid\ndataset")
        assert cache.load_dataset(["k"]) is None
        assert not path.exists()

    def test_info_and_clear(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        assert cache.info().n_entries == 0
        cache.store_dataset(["k"], _tiny_dataset())
        info = cache.info()
        assert info.n_entries == 1
        assert info.total_bytes > 0
        assert "dataset-" in info.entries[0]
        assert cache.clear() == 1
        assert cache.info().n_entries == 0

    def test_clear_missing_directory(self, tmp_path):
        assert ArtifactCache(tmp_path / "absent").clear() == 0

    def test_unserializable_json_leaves_no_entry(self, tmp_path):
        cache = ArtifactCache(tmp_path)
        with pytest.raises(ReproError, match="json payload is not serializable"):
            cache.store_json(["x"], {"b": object()})
        assert list(tmp_path.iterdir()) == []
        assert cache.info().n_entries == 0

    def test_failed_writer_leaves_no_temp_file(self, tmp_path, monkeypatch):
        import repro.datasets.csvio as csvio

        def torn_write(dataset, path):
            with open(path, "w", encoding="utf-8") as handle:
                handle.write("meta_workload,a,b")
            raise OSError("disk full")

        monkeypatch.setattr(csvio, "save_csv", torn_write)
        cache = ArtifactCache(tmp_path)
        with pytest.raises(OSError, match="disk full"):
            cache.store_dataset(["k"], _tiny_dataset())
        assert list(tmp_path.iterdir()) == []

    def test_temp_files_are_never_entries(self, tmp_path):
        # What a write killed mid-way leaves behind.
        from repro.lint import lint_cache

        cache = ArtifactCache(tmp_path)
        path = cache.store_json(["x"], {"b": 1})
        (tmp_path / f".tmp-{path.name}.4242").write_text('{"b": ')
        assert cache.info().n_entries == 1
        assert lint_cache(tmp_path).diagnostics == []
        assert cache.clear() == 1
