"""Forest registry life cycle: publish, resolve, serve, and failure paths."""

import json

import numpy as np
import pytest

from repro.baselines import BaggedM5
from repro.core.tree.serialize import (
    load_model,
    loads_model,
    model_from_dict,
    model_to_dict,
    save_model,
)
from repro.datasets.synthetic import figure1_dataset
from repro.errors import ParseError, RegistryError, ServeError
from repro.serve.refine import RefinedForest
from repro.serve.registry import ModelRegistry
from repro.serve.server import ModelServer


@pytest.fixture(scope="module")
def data():
    return figure1_dataset(n=180, noise_sd=0.05, rng=21)


@pytest.fixture(scope="module")
def forest(data):
    forest = BaggedM5(n_estimators=4, min_instances=20, seed=6).fit(data)
    RefinedForest(forest).fit(data)
    return forest


@pytest.fixture
def registry(tmp_path):
    return ModelRegistry(tmp_path / "registry")


class TestPublishResolveServe:
    def test_round_trip_via_alias(self, registry, forest, data):
        record = registry.publish("cpi-forest", forest, aliases=["prod"])
        assert record.kind == "forest"
        loaded, resolved = registry.resolve("cpi-forest@prod")
        assert resolved.spec == "cpi-forest@1"
        assert loaded.refined_ is not None
        assert np.array_equal(loaded.predict(data.X), forest.predict(data.X))

    def test_render_marks_forest_kind(self, registry, forest):
        registry.publish("cpi-forest", forest)
        assert "forest" in registry.render()

    def test_served_predict_envelope(self, registry, forest, data):
        registry.publish("cpi-forest", forest)
        server = ModelServer(registry=registry, default_model="cpi-forest")
        server.start()
        server.serve_in_background()
        try:
            document = server.handle_predict(
                {"sections": [list(map(float, data.X[0]))]}
            )
        finally:
            server.shutdown()
        assert document["n_trees"] == len(forest.estimators_)
        assert document["refined"] is True
        assert "leaf_ids" not in document
        assert document["predictions"] == [float(forest.predict(data.X[:1])[0])]

    def test_explain_rejected_for_forests(self, registry, forest, data):
        registry.publish("cpi-forest", forest)
        server = ModelServer(registry=registry, default_model="cpi-forest")
        server.start()
        server.serve_in_background()
        try:
            with pytest.raises(ServeError, match="single-tree endpoint"):
                server.handle_explain(
                    {"sections": [list(map(float, data.X[0]))]}
                )
        finally:
            server.shutdown()

    def test_tree_records_keep_kind_tree(self, registry, data):
        from repro.core.tree import M5Prime

        tree = M5Prime(min_instances=30).fit(data)
        record = registry.publish("cpi-tree", tree)
        assert record.kind == "tree"

    def test_pre_forest_manifest_back_compat(self, registry, forest, data):
        """Manifests written before the kind field default to tree."""
        from repro.core.tree import M5Prime

        tree = M5Prime(min_instances=30).fit(data)
        registry.publish("cpi-tree", tree)
        manifest = json.loads(registry.manifest_path.read_text())
        for name_entry in manifest["models"].values():
            for version_entry in name_entry["versions"].values():
                version_entry.pop("kind", None)
        registry.manifest_path.write_text(json.dumps(manifest))
        _, record = registry.resolve("cpi-tree")
        assert record.kind == "tree"


class TestFailurePaths:
    def test_tampered_blob_quarantined(self, registry, forest):
        record = registry.publish("cpi-forest", forest)
        blob = registry.directory / record.blob
        blob.write_text(blob.read_text()[:100])
        with pytest.warns(RuntimeWarning, match="quarantined"):
            with pytest.raises(RegistryError, match="missing or corrupt"):
                registry.resolve("cpi-forest")
        assert not blob.exists()
        assert (registry.cache.quarantine_directory / record.blob).exists()

    def test_tree_count_mismatch_names_defect(self, forest):
        document = model_to_dict(forest)
        document["n_trees"] = 7
        with pytest.raises(ParseError, match="tree-count mismatch"):
            model_from_dict(document)

    def test_refined_offset_mismatch_names_defect(self, forest):
        document = model_to_dict(forest)
        document["refined"]["weights"] = document["refined"]["weights"][:-1]
        with pytest.raises(ParseError, match="offset mismatch"):
            model_from_dict(document)

    def test_zero_estimators_is_a_parse_error(self, forest):
        document = model_to_dict(forest)
        document["params"]["n_estimators"] = 0
        with pytest.raises(ParseError, match="n_estimators"):
            loads_model(json.dumps(document))

    def test_out_of_range_sample_fraction_is_a_parse_error(self, forest):
        document = model_to_dict(forest)
        document["params"]["sample_fraction"] = 2.0
        with pytest.raises(ParseError, match="sample_fraction"):
            loads_model(json.dumps(document))

    def test_unknown_format_names_expectations(self):
        with pytest.raises(ParseError, match="unknown model format"):
            loads_model(json.dumps({"format": "repro-mystery"}))

    def test_load_failure_names_source_path(self, tmp_path, forest):
        path = tmp_path / "forest.json"
        save_model(forest, path)
        document = json.loads(path.read_text())
        document["trees"] = document["trees"][:-1]
        path.write_text(json.dumps(document))
        with pytest.raises(ParseError, match="forest.json"):
            load_model(path)


class TestFileRoundTrip:
    def test_save_load_bit_identical(self, tmp_path, forest, data):
        path = tmp_path / "forest.json"
        save_model(forest, path)
        restored = load_model(path)
        assert np.array_equal(
            restored.predict(data.X), forest.predict(data.X)
        )
        assert restored.refined_ is not None
        assert np.array_equal(
            restored.refined_.weights, forest.refined_.weights
        )

    def test_cache_round_trip(self, tmp_path, forest, data, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
        from repro.parallel.cache import ArtifactCache

        cache = ArtifactCache(tmp_path / "cache")
        cache.store_model("forest-key", forest)
        restored = cache.load_model("forest-key")
        assert np.array_equal(
            restored.predict(data.X), forest.predict(data.X)
        )
