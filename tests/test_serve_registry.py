"""Model registry: publish/resolve/alias, specs, and integrity."""

import json

import numpy as np
import pytest

from repro.core.tree import M5Prime
from repro.errors import RegistryError
from repro.serve.registry import ModelRegistry, parse_spec


@pytest.fixture
def registry(tmp_path):
    return ModelRegistry(tmp_path / "registry")


class TestParseSpec:
    def test_bare_name_implies_latest(self):
        assert parse_spec("cpi-tree") == ("cpi-tree", "latest")

    def test_explicit_version(self):
        assert parse_spec("cpi-tree@3") == ("cpi-tree", "3")

    def test_alias(self):
        assert parse_spec("cpi-tree@prod") == ("cpi-tree", "prod")

    @pytest.mark.parametrize("bad", ["", "  ", "UPPER", "-lead", "a@", "a b"])
    def test_invalid_specs_rejected(self, bad):
        with pytest.raises(RegistryError):
            parse_spec(bad)


class TestPublishResolve:
    def test_publish_then_resolve_latest(self, registry, suite_tree,
                                         suite_dataset):
        record = registry.publish("cpi-tree", suite_tree)
        assert record.spec == "cpi-tree@1"
        assert record.attributes == tuple(suite_tree.attributes_)
        loaded, resolved = registry.resolve("cpi-tree@latest")
        assert resolved.spec == "cpi-tree@1"
        assert np.array_equal(
            loaded.predict(suite_dataset.X), suite_tree.predict(suite_dataset.X)
        )

    def test_versions_increment(self, registry, suite_tree):
        assert registry.publish("m", suite_tree).version == 1
        assert registry.publish("m", suite_tree).version == 2
        assert registry.names() == {"m": 2}
        _, record = registry.resolve("m@1")
        assert record.version == 1

    def test_alias_resolution(self, registry, suite_tree):
        registry.publish("m", suite_tree)
        registry.publish("m", suite_tree)
        registry.alias("m", "prod", version=1)
        _, record = registry.resolve("m@prod")
        assert record.version == 1
        registry.alias("m", "prod")  # re-point at current latest
        _, record = registry.resolve("m@prod")
        assert record.version == 2

    def test_publish_rejects_unfitted(self, registry):
        with pytest.raises(RegistryError):
            registry.publish("m", M5Prime())

    def test_publish_rejects_spec_with_version(self, registry, suite_tree):
        with pytest.raises(RegistryError):
            registry.publish("m@1", suite_tree)

    def test_unknown_name_and_version(self, registry, suite_tree):
        with pytest.raises(RegistryError):
            registry.resolve("ghost")
        registry.publish("m", suite_tree)
        with pytest.raises(RegistryError):
            registry.resolve("m@9")
        with pytest.raises(RegistryError):
            registry.resolve("m@no-such-alias")

    def test_records_listing_and_render(self, registry, suite_tree):
        registry.publish("a", suite_tree)
        registry.publish("b", suite_tree, aliases=["prod"])
        specs = [r.spec for r in registry.records()]
        assert specs == ["a@1", "b@1"]
        text = registry.render()
        assert "a@1" in text and "b@1" in text and "prod" in text

    def test_records_and_render_read_the_manifest_once(
        self, registry, suite_tree, monkeypatch
    ):
        for _ in range(5):
            registry.publish("m", suite_tree)
        reads = []
        read_manifest = registry._read_manifest

        def counted():
            reads.append(1)
            return read_manifest()

        monkeypatch.setattr(registry, "_read_manifest", counted)
        assert [r.version for r in registry.records()] == [1, 2, 3, 4, 5]
        assert len(reads) == 1
        assert "m@5" in registry.render()
        assert len(reads) == 2


class TestIntegrity:
    def test_corrupt_blob_raises_and_quarantines(self, registry, suite_tree):
        record = registry.publish("m", suite_tree)
        blob = registry.directory / record.blob
        blob.write_text(blob.read_text()[:50])  # truncate
        with pytest.warns(RuntimeWarning, match="quarantined"):
            with pytest.raises(RegistryError, match="missing or corrupt"):
                registry.resolve("m@1")
        assert not blob.exists()
        assert (registry.cache.quarantine_directory / record.blob).exists()

    def test_missing_blob_raises(self, registry, suite_tree):
        record = registry.publish("m", suite_tree)
        (registry.directory / record.blob).unlink()
        sidecar = registry.cache.checksum_path(registry.directory / record.blob)
        sidecar.unlink()
        with pytest.raises(RegistryError, match="missing or corrupt"):
            registry.resolve("m")

    def test_malformed_manifest_raises(self, registry, suite_tree):
        registry.publish("m", suite_tree)
        registry.manifest_path.write_text("{not json")
        with pytest.raises(RegistryError, match="unreadable manifest"):
            registry.resolve("m")

    def test_wrong_schema_manifest_raises(self, registry):
        registry.directory.mkdir(parents=True, exist_ok=True)
        registry.manifest_path.write_text(json.dumps({"schema": "other/9"}))
        with pytest.raises(RegistryError, match="not a repro-registry/1"):
            registry.records()

    def test_empty_registry_lists_nothing(self, registry):
        assert registry.records() == []
        assert registry.names() == {}
