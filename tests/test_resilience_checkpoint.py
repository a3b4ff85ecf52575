"""Checkpoints as artifact-cache entries, driven through ``run_units``:
round trips, corruption quarantine, addressing and maintenance."""

import hashlib
import json

import numpy as np
import pytest

from repro.cli import main
from repro.errors import CheckpointError, ReproError, RetryExhaustedError
from repro.parallel import ArtifactCache
from repro.resilience import (
    RetryPolicy,
    RunPolicy,
    dataset_fingerprint,
    jsonable,
    run_units,
)
from repro.resilience.faults import FAULTS_ENV, reset_faults


@pytest.fixture
def cache(tmp_path):
    return ArtifactCache(tmp_path / "artifacts")


def _policy(cache, run_key="run", resume=False):
    return RunPolicy(
        retry=RetryPolicy(max_attempts=1, base_delay=0.0),
        checkpoint=cache,
        run_key=run_key,
        resume=resume,
    )


class _Returns:
    """A unit task returning a fixed payload and counting its calls."""

    def __init__(self, payload):
        self.payload = payload
        self.calls = 0

    def __call__(self, item):
        self.calls += 1
        return self.payload


def _run(cache, payload, resume=False):
    """One single-unit run; returns ``(result, times the task ran)``."""
    task = _Returns(payload)
    (result,), failures = run_units(
        task, [None], ["unit"], 1, _policy(cache, resume=resume)
    )
    assert failures == []
    return result, task.calls


# ---------------------------------------------------------------------------
# Round trips
# ---------------------------------------------------------------------------
class TestRoundTrip:
    def test_store_and_load(self, cache):
        payload = {"fold": 3, "predictions": [1.25, -0.5]}
        assert _run(cache, payload) == (payload, 1)
        assert _run(cache, {"other": 1}, resume=True) == (payload, 0)

    def test_floats_survive_bit_exactly(self, cache):
        # Shortest-round-trip repr: every double comes back identical.
        values = np.random.default_rng(0).normal(size=256)
        _run(cache, values)
        resumed, calls = _run(cache, None, resume=True)
        assert calls == 0
        loaded = np.asarray(resumed)
        assert loaded.dtype == np.float64
        np.testing.assert_array_equal(loaded, values)

    def test_numpy_scalars_and_arrays_become_json(self):
        payload = {
            "f": np.float64(1.5), "i": np.int64(3), "b": np.bool_(True),
            "a": np.arange(3), "nested": [np.float32(0.5), (1, 2)],
        }
        clean = jsonable(payload)
        json.dumps(clean)  # must be serializable as-is
        assert clean["f"] == 1.5 and clean["i"] == 3 and clean["b"] is True
        assert clean["a"] == [0, 1, 2]

    def test_missing_unit_is_none(self, cache):
        assert cache.load_checkpoint("run", "absent") is None
        assert _run(cache, {"x": 1}, resume=True) == ({"x": 1}, 1)

    def test_unserializable_payload_raises(self, cache):
        with pytest.raises(ReproError, match="checkpoint payload is not serializable"):
            cache.store_checkpoint("run", "unit", {"bad": object()})
        with pytest.raises(RetryExhaustedError, match="not serializable"):
            _run(cache, {"bad": object()})
        assert not cache.directory.exists()  # nothing was written


# ---------------------------------------------------------------------------
# Corruption handling: every bad document is quarantined and recomputed
# ---------------------------------------------------------------------------
class TestCorruption:
    def _checkpoint(self, cache):
        _run(cache, {"x": 1.0})
        return cache.path_for("checkpoint", ["run", "unit"])

    def _recomputes(self, cache, path):
        with pytest.warns(RuntimeWarning, match="quarantined"):
            assert _run(cache, {"x": 1.0}, resume=True) == ({"x": 1.0}, 1)
        assert (cache.quarantine_directory / path.name).exists()

    def test_truncated_file_quarantined(self, cache):
        path = self._checkpoint(cache)
        path.write_text(path.read_text()[: len(path.read_text()) // 2])
        self._recomputes(cache, path)

    def test_tampered_payload_fails_checksum(self, cache):
        path = self._checkpoint(cache)
        document = json.loads(path.read_text())
        document["result"]["x"] = 2.0
        path.write_text(json.dumps(document))
        self._recomputes(cache, path)

    def test_foreign_json_rejected(self, cache):
        path = self._checkpoint(cache)
        path.write_text(json.dumps({"something": "else"}))
        self._recomputes(cache, path)

    @pytest.mark.parametrize(
        "document",
        [
            {"run": "other-run", "unit": "unit", "result": {"x": 9.0}},
            {"run": "run", "unit": "other-unit", "result": {"x": 9.0}},
            {"run": "run", "unit": "unit"},
            ["run", "unit", {"x": 9.0}],
        ],
    )
    def test_foreign_document_with_matching_sidecar_quarantined(
        self, cache, document
    ):
        # The sidecar vouches for the bytes; the run/unit check is what
        # refuses a document that belongs somewhere else.
        path = self._checkpoint(cache)
        path.write_text(json.dumps(document))
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        cache.checksum_path(path).write_text(digest + "\n")
        assert [entry.status for entry in cache.scan()] == ["ok"]
        self._recomputes(cache, path)

    def test_quarantined_unit_recomputes_and_stores_again(self, cache):
        path = self._checkpoint(cache)
        path.write_text("garbage")
        self._recomputes(cache, path)
        assert _run(cache, None, resume=True) == ({"x": 1.0}, 0)

    def test_lint_reports_tampered_checkpoint(self, cache, capsys):
        path = self._checkpoint(cache)
        assert main(["lint", "--cache-dir", str(cache.directory), "--strict"]) == 0
        path.write_text(path.read_text().replace("1.0", "2.0"))
        capsys.readouterr()
        assert main(["lint", "--cache-dir", str(cache.directory), "--strict"]) == 2
        out = capsys.readouterr().out
        assert "CACHE002" in out and path.name in out


# ---------------------------------------------------------------------------
# Addressing
# ---------------------------------------------------------------------------
class TestAddressing:
    def test_hostile_names_are_sanitized(self, cache):
        path = cache.store_checkpoint("../run", "wl-a b/c", {"x": 1})
        assert path.parent == cache.directory
        assert path.name.startswith("checkpoint-")
        assert "/" not in path.name and " " not in path.name

    def test_empty_run_key_rejected(self, cache):
        for run_key in ("", None):
            with pytest.raises(CheckpointError, match="run_key"):
                run_units(
                    _Returns({}), [None], ["unit"], 1, _policy(cache, run_key)
                )


# ---------------------------------------------------------------------------
# Faults at the cache sites
# ---------------------------------------------------------------------------
class TestFaults:
    @pytest.fixture(autouse=True)
    def _isolated(self, monkeypatch):
        monkeypatch.delenv(FAULTS_ENV, raising=False)
        reset_faults()
        yield
        reset_faults()

    def test_failed_write_continues_uncached(self, cache, monkeypatch):
        monkeypatch.setenv(FAULTS_ENV, "cache_write:1.0")
        reset_faults()
        with pytest.warns(RuntimeWarning, match="continuing uncached"):
            assert _run(cache, {"x": 1.0}) == ({"x": 1.0}, 1)
        assert cache.checkpoint_runs() == {}

    def test_failed_read_recomputes(self, cache, monkeypatch):
        _run(cache, {"x": 1.0})
        monkeypatch.setenv(FAULTS_ENV, "cache_read:1.0")
        reset_faults()
        assert _run(cache, {"x": 1.0}, resume=True) == ({"x": 1.0}, 1)


# ---------------------------------------------------------------------------
# Inspection and maintenance
# ---------------------------------------------------------------------------
class TestMaintenance:
    def test_runs_counts_units(self, cache):
        cache.store_checkpoint("collect-1", "wl-a", {})
        cache.store_checkpoint("collect-1", "wl-b", {})
        cache.store_checkpoint("compare-2/ols", "fold-000", {})
        assert cache.checkpoint_runs() == {"collect-1": 2, "compare-2/ols": 1}

    def test_unreadable_checkpoint_is_skipped_by_runs(self, cache):
        cache.store_checkpoint("collect-1", "wl-a", {})
        cache.store_checkpoint("collect-1", "wl-b", {}).write_text("{trunc")
        assert cache.checkpoint_runs() == {"collect-1": 1}

    def test_clear_all(self, cache):
        cache.store_checkpoint("a", "u", {})
        cache.store_checkpoint("b/nested", "u", {})
        assert cache.clear() >= 2
        assert cache.checkpoint_runs() == {}

    def test_clear_empty_store(self, tmp_path):
        assert ArtifactCache(tmp_path / "never-created").clear() == 0


# ---------------------------------------------------------------------------
# Dataset fingerprints
# ---------------------------------------------------------------------------
class TestDatasetFingerprint:
    def test_content_addressed(self, suite_dataset):
        assert dataset_fingerprint(suite_dataset) == dataset_fingerprint(
            suite_dataset
        )
        assert len(dataset_fingerprint(suite_dataset)) == 16

    def test_changed_target_changes_fingerprint(self, suite_dataset):
        from repro.datasets.dataset import Dataset

        bumped = Dataset(
            X=suite_dataset.X.copy(),
            y=suite_dataset.y + 1e-9,
            attributes=list(suite_dataset.attributes),
            target_name=suite_dataset.target_name,
        )
        assert dataset_fingerprint(bumped) != dataset_fingerprint(suite_dataset)
