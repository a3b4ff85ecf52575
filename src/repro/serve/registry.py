"""Versioned model registry layered on the artifact cache.

The serving layer needs a name — ``cpi-tree@latest`` — where the
training layer produces a file.  :class:`ModelRegistry` bridges the two:
``publish`` serializes a fitted :class:`~repro.core.tree.m5.M5Prime`
into an :class:`~repro.parallel.cache.ArtifactCache` rooted at the
registry directory (inheriting its atomic writes, ``.sha256`` integrity
sidecars, and quarantine-on-corruption) and records the version in a
manifest; ``resolve`` turns a spec back into a loaded model.

Layout (default ``<default_cache_dir>/registry``)::

    registry/
        manifest.json                the name -> version index (atomic)
        model-<digest>.json          one blob per published version
        model-<digest>.json.sha256   integrity sidecar
        cert-<digest>.json           verification certificate (see below)
        quarantine/                  corrupt blobs, kept for autopsy

Publishing is gated by the static model verifier (:mod:`repro.verify`):
a model with ERROR findings is refused, and a clean model with recorded
``feature_ranges_`` ships a :class:`~repro.verify.certificate.\
VerificationCertificate` (per-leaf feasible boxes and output bounds)
beside its blob, which serving loads to enforce prediction bounds
online.  ``publish(..., verify=False)`` skips the gate — for tests and
for deliberately republishing a known-odd artifact.

Spec grammar: ``name`` (implies ``@latest``), ``name@latest``,
``name@<version>`` (1-based integer), or ``name@<alias>`` for aliases
created with :meth:`ModelRegistry.alias`.

A blob that fails its checksum or no longer parses is quarantined by the
cache on load; ``resolve`` then raises :class:`~repro.errors.RegistryError`
telling the operator to republish, and ``repro lint --registry`` reports
the damage statically (the SERVE rule family).
"""

from __future__ import annotations

import datetime as _datetime
import json
import os
import re
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

from repro.core.tree.m5 import M5Prime
from repro.errors import DataError, RegistryError
from repro.parallel.cache import ArtifactCache
from repro.resilience.faults import maybe_inject

if TYPE_CHECKING:
    from repro.verify.certificate import VerificationCertificate

__all__ = ["ModelRecord", "ModelRegistry", "parse_spec"]

#: Manifest document identity; bump on incompatible layout changes.
MANIFEST_SCHEMA = "repro-registry/1"

MANIFEST_NAME = "manifest.json"

_NAME_RE = re.compile(r"^[a-z0-9][a-z0-9._-]*$")


def parse_spec(spec: str) -> Tuple[str, str]:
    """Split ``name[@ref]`` into ``(name, ref)``; ref defaults to latest."""
    text = spec.strip()
    if not text:
        raise RegistryError("empty model spec")
    if "@" in text:
        name, _, ref = text.partition("@")
    else:
        name, ref = text, "latest"
    if not _NAME_RE.match(name):
        raise RegistryError(
            f"invalid model name {name!r} (lowercase letters, digits, "
            "'.', '_', '-'; must start alphanumeric)"
        )
    if not ref:
        raise RegistryError(f"model spec {spec!r} has an empty version")
    return name, ref


@dataclass(frozen=True)
class ModelRecord:
    """One published model version as the manifest describes it.

    ``certificate`` names the verification-certificate file beside the
    blob, or is ``None`` for versions published without one (pre-verify
    manifests, ``verify=False``, models lacking ``feature_ranges_``, or
    forests — which are verified structurally but not certified).

    ``kind`` distinguishes single trees (``"tree"``) from compiled
    ensembles (``"forest"``); manifests written before forests existed
    lack the key and parse as trees.
    """

    name: str
    version: int
    blob: str
    created: str
    attributes: Tuple[str, ...]
    target: str
    n_leaves: int
    certificate: Optional[str] = None
    kind: str = "tree"

    @property
    def spec(self) -> str:
        return f"{self.name}@{self.version}"

    def to_dict(self) -> Dict[str, object]:
        return {
            "version": self.version,
            "blob": self.blob,
            "created": self.created,
            "attributes": list(self.attributes),
            "target": self.target,
            "n_leaves": self.n_leaves,
            "certificate": self.certificate,
            "kind": self.kind,
        }


class ModelRegistry:
    """Named, versioned, integrity-checked store of fitted models.

    Args:
        directory: Registry root; defaults to
            ``<default_cache_dir>/registry`` (so ``$REPRO_CACHE_DIR``
            relocates it together with the artifact cache).
    """

    def __init__(self, directory: Optional[Path] = None) -> None:
        if directory is None:
            from repro.experiments.config import default_cache_dir

            directory = default_cache_dir() / "registry"
        self.directory = Path(directory)
        self.cache = ArtifactCache(self.directory)

    @property
    def manifest_path(self) -> Path:
        return self.directory / MANIFEST_NAME

    # ------------------------------------------------------------------
    # Manifest I/O
    # ------------------------------------------------------------------
    def _read_manifest(self) -> Dict:
        path = self.manifest_path
        maybe_inject("registry_read", str(path))
        if not path.exists():
            return {"schema": MANIFEST_SCHEMA, "models": {}}
        try:
            with open(path, "r", encoding="utf-8") as handle:
                document = json.load(handle)
        except (OSError, json.JSONDecodeError) as exc:
            raise RegistryError(f"{path}: unreadable manifest: {exc}") from None
        if (
            not isinstance(document, dict)
            or document.get("schema") != MANIFEST_SCHEMA
            or not isinstance(document.get("models"), dict)
        ):
            raise RegistryError(
                f"{path}: not a {MANIFEST_SCHEMA} manifest"
            )
        return document

    def _write_manifest(self, document: Dict) -> None:
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = self.manifest_path.with_suffix(f".json.tmp{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(document, handle, indent=1, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, self.manifest_path)

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(
        self,
        name: str,
        model,
        aliases: Sequence[str] = (),
        verify: bool = True,
    ) -> ModelRecord:
        """Store a fitted model under ``name`` as the next version.

        Accepts a single :class:`~repro.core.tree.m5.M5Prime` or a
        fitted :class:`~repro.baselines.bagging.BaggedM5` ensemble.
        The model first passes the static verifier
        (:func:`repro.verify.verify_model`) — any ERROR finding refuses
        the publish before a byte is written.  A clean single tree with
        recorded ranges stores its verification certificate beside the
        blob; forests ship uncertified — interval certificates remain a
        single-tree feature.  Pass ``verify=False`` to skip the gate.

        The blob goes through the artifact cache (atomic write plus
        ``.sha256`` sidecar); the manifest update is itself atomic, so a
        crash mid-publish leaves at worst an orphaned blob, never a
        manifest pointing at nothing.
        """
        parsed, _ = parse_spec(name)
        if parsed != name:
            raise RegistryError(f"publish takes a bare name, got {name!r}")
        is_forest = not isinstance(model, M5Prime) and hasattr(
            model, "estimators_"
        )
        if is_forest:
            if not model.estimators_:
                raise RegistryError("cannot publish an unfitted forest")
        elif model.root_ is None:
            raise RegistryError("cannot publish an unfitted model")
        certificate = None
        if verify:
            from repro.verify import verify_model

            result = verify_model(model)
            if not result.ok:
                findings = "; ".join(
                    d.render() for d in result.diagnostics[:5]
                )
                raise RegistryError(
                    f"refusing to publish {name!r}: static verification "
                    f"found {result.n_errors} error(s): {findings}"
                )
            certificate = result.certificate
        document = self._read_manifest()
        entry = document["models"].setdefault(
            name, {"latest": 0, "aliases": {}, "versions": {}}
        )
        version = int(entry["latest"]) + 1
        blob_path = self.cache.store_model([name, version], model)
        certificate_name: Optional[str] = None
        if certificate is not None:
            # "cert-" rather than "model-<digest>.cert" keeps the file
            # outside the artifact cache's entry namespace (which scans
            # "model-*" files and would demand a checksum sidecar).
            digest = blob_path.stem.partition("-")[2] or blob_path.stem
            certificate_name = f"cert-{digest}.json"
            self._write_certificate(certificate_name, certificate)
        record = ModelRecord(
            name=name,
            version=version,
            blob=blob_path.name,
            created=_datetime.datetime.now(_datetime.timezone.utc).isoformat(
                timespec="seconds"
            ),
            attributes=tuple(model.attributes_),
            target=model.target_name_,
            n_leaves=model.n_leaves,
            certificate=certificate_name,
            kind="forest" if is_forest else "tree",
        )
        entry["versions"][str(version)] = record.to_dict()
        entry["latest"] = version
        for alias in aliases:
            entry["aliases"][str(alias)] = version
        self._write_manifest(document)
        return record

    def _write_certificate(
        self, filename: str, certificate: "VerificationCertificate"
    ) -> None:
        """Atomically write a certificate document beside its blob."""
        self.directory.mkdir(parents=True, exist_ok=True)
        path = self.directory / filename
        tmp = path.with_suffix(f".tmp{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as handle:
            handle.write(certificate.to_json())
        os.replace(tmp, path)

    def load_certificate(
        self, record: ModelRecord
    ) -> Optional["VerificationCertificate"]:
        """The stored certificate for a record, or ``None`` if it has none.

        Raises :class:`~repro.errors.RegistryError` when the manifest
        promises a certificate but the file is missing or malformed —
        a half-deleted registry should fail loudly, not silently lose
        its bounds.
        """
        from repro.verify import VerificationCertificate

        if record.certificate is None:
            return None
        path = self.directory / record.certificate
        try:
            text = path.read_text(encoding="utf-8")
        except OSError as exc:
            raise RegistryError(
                f"{record.spec}: certificate {record.certificate!r} is "
                f"unreadable ({exc}); republish the model"
            ) from None
        try:
            return VerificationCertificate.from_json(text)
        except DataError as exc:
            raise RegistryError(
                f"{record.spec}: certificate {record.certificate!r} is "
                f"malformed ({exc}); republish the model"
            ) from None

    def alias(self, name: str, alias: str, version: Optional[int] = None) -> None:
        """Point ``name@alias`` at a version (default: current latest)."""
        document = self._read_manifest()
        entry = document["models"].get(name)
        if entry is None:
            raise RegistryError(f"no model named {name!r} in {self.directory}")
        target = int(version if version is not None else entry["latest"])
        if str(target) not in entry["versions"]:
            raise RegistryError(f"{name!r} has no version {target}")
        entry["aliases"][str(alias)] = target
        self._write_manifest(document)

    # ------------------------------------------------------------------
    # Resolution
    # ------------------------------------------------------------------
    def record_for(self, spec: str) -> ModelRecord:
        """The manifest record a spec names (no blob I/O)."""
        name, ref = parse_spec(spec)
        document = self._read_manifest()
        entry = document["models"].get(name)
        if entry is None:
            known = ", ".join(sorted(document["models"])) or "none"
            raise RegistryError(
                f"no model named {name!r} in {self.directory} "
                f"(published: {known})"
            )
        if ref == "latest":
            version = int(entry["latest"])
        elif ref.isdigit():
            version = int(ref)
        elif ref in entry.get("aliases", {}):
            version = int(entry["aliases"][ref])
        else:
            raise RegistryError(
                f"{name!r} has no version or alias {ref!r}"
            )
        payload = entry["versions"].get(str(version))
        if payload is None:
            raise RegistryError(f"{name!r} has no version {version}")
        try:
            certificate = payload.get("certificate")
            return ModelRecord(
                name=name,
                version=int(payload["version"]),
                blob=str(payload["blob"]),
                created=str(payload["created"]),
                attributes=tuple(str(a) for a in payload["attributes"]),
                target=str(payload["target"]),
                n_leaves=int(payload["n_leaves"]),
                certificate=(
                    None if certificate is None else str(certificate)
                ),
                kind=str(payload.get("kind", "tree")),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise RegistryError(
                f"{self.manifest_path}: malformed record for "
                f"{name}@{version}: {exc}"
            ) from None

    def resolve(self, spec: str) -> Tuple[object, ModelRecord]:
        """Load the model (tree or forest) a spec names, verifying blob
        integrity.

        A corrupt blob is quarantined by the cache layer and reported
        here as a :class:`~repro.errors.RegistryError` — serving must
        fail loudly, not fall back to a silently different model.
        """
        record = self.record_for(spec)
        model = self.cache.load_model([record.name, record.version])
        if model is None:
            raise RegistryError(
                f"blob for {record.spec} ({record.blob}) is missing or "
                "corrupt (quarantined); republish the model"
            )
        return model, record

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def records(self) -> List[ModelRecord]:
        """Every published version, name-then-version ordered."""
        document = self._read_manifest()
        result: List[ModelRecord] = []
        for name in sorted(document["models"]):
            entry = document["models"][name]
            for version in sorted(entry["versions"], key=int):
                result.append(self.record_for(f"{name}@{version}"))
        return result

    def names(self) -> Dict[str, int]:
        """``{name: latest version}`` for every published name."""
        document = self._read_manifest()
        return {
            name: int(entry["latest"])
            for name, entry in sorted(document["models"].items())
        }

    def render(self) -> str:
        """Human-readable listing for ``repro cache info``."""
        try:
            records = self.records()
        except RegistryError as exc:
            return f"registry: UNREADABLE ({exc})"
        lines = [f"registry directory: {self.directory}",
                 f"published versions: {len(records)}"]
        document = self._read_manifest()
        for record in records:
            markers = []
            if record.kind != "tree":
                markers.append(record.kind)
            entry = document["models"][record.name]
            if int(entry["latest"]) == record.version:
                markers.append("latest")
            markers.extend(
                alias for alias, v in sorted(entry.get("aliases", {}).items())
                if int(v) == record.version
            )
            suffix = f" [{', '.join(markers)}]" if markers else ""
            lines.append(
                f"  {record.spec:<24} {record.n_leaves:>3} leaves  "
                f"{len(record.attributes):>3} features  "
                f"{record.created}{suffix}"
            )
        return "\n".join(lines)
