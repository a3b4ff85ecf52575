"""Calibration artifact: roundtrip, digests, staleness, storage."""

import dataclasses

import numpy as np
import pytest

from repro.errors import ParseError, StaleCalibrationError
from repro.fastsim import (
    CALIBRATION_SCHEMA,
    RESIDUAL_FEATURE_NAMES,
    Calibration,
    analytic_sections,
    get_calibration,
    load_calibration,
    machine_fingerprint,
    phase_key,
    store_calibration,
    suite_phases,
)
from repro.parallel.cache import ArtifactCache
from repro.simulator import MachineConfig
from repro.workloads import PhaseParams, spec_like_suite
from repro.workloads.suite import workload_fingerprint


class TestRoundtrip:
    def test_to_from_dict_preserves_everything(self, small_calibration):
        payload = small_calibration.to_dict()
        assert payload["schema"] == CALIBRATION_SCHEMA
        restored = Calibration.from_dict(payload)
        assert restored.anchors == small_calibration.anchors
        assert restored.nominal_corrections \
            == small_calibration.nominal_corrections
        assert restored.machine_fingerprint \
            == small_calibration.machine_fingerprint
        assert restored.workload_fingerprint \
            == small_calibration.workload_fingerprint
        assert restored.seed == small_calibration.seed
        assert restored.digest == small_calibration.digest

    def test_restored_model_predicts_identically(
        self, small_calibration, fast_profiles
    ):
        restored = Calibration.from_dict(small_calibration.to_dict())
        phases = suite_phases(fast_profiles)
        _, _, features = analytic_sections(phases)
        assert np.array_equal(
            restored.model.predict(features),
            small_calibration.model.predict(features),
        )

    def test_wrong_schema_rejected(self, small_calibration):
        payload = small_calibration.to_dict()
        payload["schema"] = "repro-fastsim-calibration/0"
        with pytest.raises(ParseError, match="schema"):
            Calibration.from_dict(payload)

    def test_missing_key_rejected(self, small_calibration):
        payload = small_calibration.to_dict()
        del payload["anchors"]
        with pytest.raises(ParseError, match="anchors"):
            Calibration.from_dict(payload)

    def test_non_object_rejected(self):
        with pytest.raises(ParseError):
            Calibration.from_dict([1, 2])  # type: ignore[arg-type]

    def test_digest_tracks_content(self, small_calibration):
        payload = small_calibration.to_dict()
        tampered = Calibration.from_dict(payload)
        key = next(iter(tampered.anchors))
        tampered.anchors[key] += 1e-6
        assert tampered.digest != small_calibration.digest


class TestStaleness:
    def test_fresh_for_own_profiles(self, small_calibration, fast_profiles):
        assert small_calibration.staleness(profiles=fast_profiles) == []
        small_calibration.require_fresh(profiles=fast_profiles)

    def test_machine_change_is_stale(self, small_calibration, fast_profiles):
        other = dataclasses.replace(MachineConfig(), rob_size=128)
        problems = small_calibration.staleness(other, fast_profiles)
        assert any("machine fingerprint" in p for p in problems)
        with pytest.raises(StaleCalibrationError):
            small_calibration.require_fresh(other, fast_profiles)

    def test_uncovered_phase_is_stale(self, small_calibration):
        problems = small_calibration.staleness(profiles=spec_like_suite()[:1])
        assert any("uncalibrated" in p for p in problems)

    def test_default_suite_checks_workload_fingerprint(
        self, small_calibration
    ):
        problems = small_calibration.staleness(profiles=None)
        assert any("workload fingerprint" in p for p in problems)

    def test_correct_rejects_unknown_phase_key(self, small_calibration):
        unknown = PhaseParams(load_fraction=0.11)
        _, cpi, features = analytic_sections([unknown])
        with pytest.raises(StaleCalibrationError, match="recalibrate"):
            small_calibration.correct(cpi, features, [phase_key(unknown)])


class TestCorrection:
    def test_nominal_prediction_is_anchor_only(
        self, small_calibration, fast_profiles
    ):
        """At a phase's nominal point the differential vanishes exactly."""
        phases = suite_phases(fast_profiles)
        _, cpi, features = analytic_sections(phases)
        keys = [phase_key(p) for p in phases]
        predicted = small_calibration.correct(cpi, features, keys)
        expected = cpi * np.exp(
            np.array([small_calibration.anchors[k] for k in keys])
        )
        # The tree's nominal-point predictions are stored from the same
        # features, so delta == 0 up to float noise.
        assert predicted == pytest.approx(expected, rel=1e-9)

    def test_fingerprint_helpers_are_stable(self):
        assert machine_fingerprint() == machine_fingerprint(MachineConfig())
        assert workload_fingerprint(None) == workload_fingerprint(
            spec_like_suite()
        )


class TestStorage:
    def test_store_load_roundtrip(
        self, tmp_path, small_calibration, fast_profiles
    ):
        cache = ArtifactCache(tmp_path)
        store_calibration(cache, small_calibration, profiles=fast_profiles)
        loaded = load_calibration(cache, profiles=fast_profiles, seed=7)
        assert loaded is not None
        assert loaded.digest == small_calibration.digest

    def test_load_miss_returns_none(self, tmp_path, fast_profiles):
        cache = ArtifactCache(tmp_path)
        assert load_calibration(cache, profiles=fast_profiles, seed=7) is None

    def test_key_separates_profiles_and_seed(
        self, tmp_path, small_calibration, fast_profiles
    ):
        cache = ArtifactCache(tmp_path)
        store_calibration(cache, small_calibration, profiles=fast_profiles)
        # Different seed or different profile set: a miss, never a cross-hit.
        assert load_calibration(cache, profiles=fast_profiles, seed=8) is None
        assert load_calibration(cache, profiles=None, seed=7) is None

    def test_get_calibration_serves_the_cached_artifact(
        self, tmp_path, small_calibration, fast_profiles
    ):
        cache = ArtifactCache(tmp_path)
        store_calibration(cache, small_calibration, profiles=fast_profiles)
        served = get_calibration(cache, profiles=fast_profiles, seed=7)
        assert served.digest == small_calibration.digest


class TestParserRefusesMalformedFields:
    """``Calibration.from_dict`` is the one parser: every malformed field
    is a ``ParseError``, which ``load_calibration`` turns into a miss."""

    @pytest.mark.parametrize(
        "bad", [None, "abc", "0.1", float("nan"), float("inf")]
    )
    def test_bad_anchor(self, small_calibration, bad):
        payload = small_calibration.to_dict()
        key = next(iter(payload["anchors"]))
        payload["anchors"][key] = bad
        with pytest.raises(ParseError, match=key):
            Calibration.from_dict(payload)

    @pytest.mark.parametrize("field, value", [
        ("anchors", {}),
        ("nominal_corrections", {}),
        ("seed", "x"),
        ("n_samples", True),
        ("stats", None),
        ("feature_names", "LoadFrac"),
        ("machine_fingerprint", 7),
        ("model", {"format": "repro-m5prime", "version": 1}),
    ])
    def test_bad_field(self, small_calibration, field, value):
        payload = small_calibration.to_dict()
        payload[field] = value
        with pytest.raises(ParseError, match=field):
            Calibration.from_dict(payload)

    def test_forest_residual_model(self, small_calibration):
        from repro.baselines import BaggedM5
        from repro.core.tree.serialize import model_to_dict
        from repro.datasets.synthetic import figure1_dataset

        forest = BaggedM5(n_estimators=2, min_instances=20, seed=1).fit(
            figure1_dataset(n=60, rng=3)
        )
        payload = small_calibration.to_dict()
        payload["model"] = model_to_dict(forest)
        with pytest.raises(ParseError, match="residual model"):
            Calibration.from_dict(payload)

    @pytest.mark.parametrize("field, value", [
        ("anchors", None),
        ("seed", "x"),
        ("stats", None),
    ])
    def test_load_calibration_misses_on_a_malformed_payload(
        self, tmp_path, small_calibration, fast_profiles, field, value
    ):
        from repro.fastsim.calibration import _cache_key

        payload = small_calibration.to_dict()
        if field == "anchors":
            key = next(iter(payload["anchors"]))
            payload["anchors"][key] = value
        else:
            payload[field] = value
        cache = ArtifactCache(tmp_path)
        cache.store_json(_cache_key(None, fast_profiles, 7), payload)
        assert load_calibration(cache, profiles=fast_profiles, seed=7) is None


class TestFeatureNamesAreFreshness:
    @pytest.fixture()
    def swapped(self, small_calibration):
        """Fresh for the default suite except for swapped feature names."""
        names = list(RESIDUAL_FEATURE_NAMES)
        names[0], names[1] = names[1], names[0]
        return dataclasses.replace(
            small_calibration,
            anchors={phase_key(p): 0.0 for p in suite_phases()},
            workload_fingerprint=workload_fingerprint(None),
            feature_names=tuple(names),
        )

    def test_staleness_reports_the_names(self, swapped):
        (problem,) = swapped.staleness()
        assert "feature names" in problem

    def test_fast_suite_refuses(self, swapped, fast_profiles):
        from repro.fastsim import fast_suite

        with pytest.raises(StaleCalibrationError, match="feature names"):
            fast_suite(fast_profiles, sections_per_workload=2,
                       calibration=swapped)

    def test_run_fastsim_reports_fast001_once(self, swapped):
        from repro.conformance import run_fastsim

        report = run_fastsim(seed=7, calibration=swapped)
        assert [d.rule_id for d in report.diagnostics] == ["FAST001"]
        assert "feature names" in report.diagnostics[0].message
