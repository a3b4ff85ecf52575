"""The ``repro fastsim`` command group, run against a seeded cache.

The tiny-profile calibration is pre-stored under the default-suite
cache key, so ``calibrate`` cache-hits instantly instead of refitting
the full suite; ``check`` and ``predict`` then exercise the staleness
gates end-to-end — the cached artifact genuinely does not cover the
default suite's phases.
"""

import json

import pytest

from repro.cli import main
from repro.experiments.config import CACHE_ENV
from repro.fastsim import store_calibration
from repro.parallel.cache import ArtifactCache


@pytest.fixture()
def seeded_cache(monkeypatch, tmp_path, small_calibration):
    """Point the CLI's cache at tmp and plant the tiny calibration.

    Stored under ``profiles=None`` (the default-suite key, seed 7): the
    exact entry ``repro fastsim --seed 7`` commands look up.
    """
    monkeypatch.setenv(CACHE_ENV, str(tmp_path))
    store_calibration(
        ArtifactCache(tmp_path / "artifacts"), small_calibration,
        profiles=None,
    )
    return tmp_path


class TestCalibrate:
    def test_cache_hit_reports_the_artifact(self, seeded_cache, capsys,
                                            small_calibration):
        assert main(["fastsim", "calibrate", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert small_calibration.digest in out
        assert "phase anchor(s)" in out
        assert "relative error" in out

    def test_json_envelope(self, seeded_cache, capsys, small_calibration):
        assert main([
            "fastsim", "calibrate", "--seed", "7", "--format", "json",
        ]) == 0
        document = json.loads(capsys.readouterr().out)
        assert document["format"] == "repro-report"
        assert document["kind"] == "fastsim-calibrate"
        assert document["digest"] == small_calibration.digest
        assert document["seed"] == 7
        assert document["stats"]["rel_err_p95"] > 0

    def test_out_writes_a_loadable_artifact(self, seeded_cache, tmp_path,
                                            capsys, small_calibration):
        from repro.fastsim import Calibration

        artifact = tmp_path / "calibration.json"
        assert main([
            "fastsim", "calibrate", "--seed", "7", "--out", str(artifact),
        ]) == 0
        restored = Calibration.from_dict(json.loads(artifact.read_text()))
        assert restored.digest == small_calibration.digest

    def test_out_artifact_audited_by_lint(self, seeded_cache, tmp_path,
                                          capsys):
        artifact = tmp_path / "calibration.json"
        main(["fastsim", "calibrate", "--seed", "7", "--out", str(artifact)])
        capsys.readouterr()
        # The tiny fit was stored under the default-suite key but its
        # *content* names the tiny suite: lint flags the mismatch.
        assert main(["lint", "--calibration", str(artifact)]) != 0
        assert "FASTSIM003" in capsys.readouterr().out

    def test_publish_to_registry(self, seeded_cache, tmp_path, capsys):
        registry = tmp_path / "registry"
        assert main([
            "fastsim", "calibrate", "--seed", "7",
            "--publish", "--registry", str(registry),
        ]) == 0
        out = capsys.readouterr().out
        assert "published residual model" in out
        assert "fastsim-residual" in out
        assert any(registry.iterdir())


class TestCheck:
    def test_stale_cached_calibration_fails_fast001(self, seeded_cache,
                                                    capsys):
        # The cached artifact does not cover the default suite: the
        # drift harness must refuse it, not report bogus numbers.
        assert main(["fastsim", "check", "--seed", "7"]) != 0
        assert "FAST001" in capsys.readouterr().out

    def test_json_format(self, seeded_cache, capsys):
        assert main([
            "fastsim", "check", "--seed", "7", "--format", "json",
        ]) != 0
        document = json.loads(capsys.readouterr().out)
        assert "FAST001" in json.dumps(document)


class TestPredict:
    def test_stale_calibration_is_a_cli_error(self, seeded_cache, tmp_path,
                                              capsys):
        assert main([
            "fastsim", "predict", "--seed", "7",
            "--out", str(tmp_path / "fast.csv"),
        ]) == 2
        err = capsys.readouterr().err
        assert "error:" in err
        assert "recalibrate" in err or "uncalibrated" in err
