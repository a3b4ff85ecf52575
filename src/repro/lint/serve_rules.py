"""The ``serve`` rule family: model-registry integrity (SERVE0xx).

A registry entry is a promise — ``cpi-tree@latest`` resolves to a model
whose bytes, schema, and feature set are what the manifest says.  These
rules audit that promise statically (``repro lint --registry``).  They
load each recorded blob with the read-only loader
(:func:`repro.core.tree.serialize.load_model`) and never trigger the
runtime's quarantine machinery, so the check is safe to run against a
live serving registry.  Each check lives in the module that reads the
artifact; the rules report it:

* ``SERVE001`` (error): the manifest itself is unreadable or not a
  ``repro-registry/1`` document — nothing can resolve.
* ``SERVE002`` (error, or the verifier's severity): a manifest record
  does not resolve to the artifact it describes — its blob is missing
  or does not load; the loaded model disagrees with the record on kind,
  attributes or target; :func:`repro.verify.verify_model` reports a
  finding (its id and any ``tree[i]`` location lead the message); or
  the stored certificate is unreadable or disagrees with the
  recomputed one (:meth:`~repro.serve.registry.ModelRegistry.\
check_certificate`, the comparison preflight makes).
* ``SERVE005`` (error, needs ``--data``): an entry's feature set does
  not match the dataset's columns — the schema drifted since publish
  and ``/predict`` requests built from this dataset would be refused
  (or worse, silently misaligned by order).
* ``SERVE007`` (warning): an alias points at a version the manifest no
  longer records, so ``name@alias`` cannot resolve.

Blob bytes against their ``.sha256`` sidecars, and quarantined blobs,
are the CACHE family's findings: ``--registry`` runs it over the
registry directory, which is an artifact cache.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Optional, Tuple, Union

from repro.errors import RegistryError, ReproError
from repro.lint.context import LintContext
from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.registry import FAMILY_SERVE, rule

if TYPE_CHECKING:
    from repro.serve.registry import ModelRecord, ModelRegistry

Finding = Tuple[str, str]


def _registry(context: LintContext) -> "ModelRegistry":
    from repro.serve.registry import ModelRegistry

    assert context.registry_dir is not None
    return ModelRegistry(context.registry_dir)


def _records(
    registry: "ModelRegistry",
) -> Tuple[List["ModelRecord"], Optional[str]]:
    """Manifest records, or the manifest-level failure message."""
    try:
        return registry.records(), None
    except RegistryError as exc:
        return [], str(exc)


@rule(
    "SERVE001",
    FAMILY_SERVE,
    Severity.ERROR,
    "the registry manifest must parse as a repro-registry/1 document",
)
def check_manifest(context: LintContext) -> Iterator[Finding]:
    registry = _registry(context)
    _, failure = _records(registry)
    if failure is not None:
        yield (failure, str(registry.manifest_path))


def _audit_record(
    registry: "ModelRegistry", record: "ModelRecord"
) -> Iterator[Union[Finding, Diagnostic]]:
    """Every way one record fails to resolve to what it describes."""
    from repro.core.tree.serialize import load_model
    from repro.verify import verify_model

    spec = record.spec
    path = registry.directory / record.blob
    if not path.exists():
        yield (
            f"{spec}: blob {record.blob!r} is missing from the registry "
            "directory; the version cannot resolve — republish it",
            spec,
        )
        return
    try:
        model = load_model(path)
    except (ReproError, OSError) as exc:
        yield (
            f"{spec}: blob {record.blob!r} does not load ({exc}); "
            "republish the model",
            spec,
        )
        return
    kind = "forest" if hasattr(model, "estimators_") else "tree"
    for field, recorded, carried in (
        ("kind", record.kind, kind),
        ("attributes", list(record.attributes), list(model.attributes_)),
        ("target", record.target, model.target_name_),
    ):
        if carried != recorded:
            yield (
                f"{spec}: manifest records {field} {recorded!r} but the "
                f"blob carries {carried!r}; the manifest no longer "
                "describes the stored model",
                spec,
            )
    result = verify_model(model)
    for diagnostic in result.diagnostics:
        where = f"{diagnostic.location}: " if diagnostic.location else ""
        yield Diagnostic(
            rule_id="SERVE002",
            severity=diagnostic.severity,
            message=(
                f"{spec}: {where}{diagnostic.rule_id} {diagnostic.message}"
            ),
            location=spec,
        )
    try:
        registry.check_certificate(record, result.certificate)
    except RegistryError as exc:
        yield (str(exc), spec)


@rule(
    "SERVE002",
    FAMILY_SERVE,
    Severity.ERROR,
    "every manifest record must resolve to a sound artifact it describes",
)
def check_records(
    context: LintContext,
) -> Iterator[Union[Finding, Diagnostic]]:
    registry = _registry(context)
    records, _ = _records(registry)
    for record in records:
        yield from _audit_record(registry, record)


@rule(
    "SERVE005",
    FAMILY_SERVE,
    Severity.ERROR,
    "registry entries should match the dataset's feature set",
)
def check_dataset_schema(context: LintContext) -> Iterator[Finding]:
    if context.dataset is None:
        return
    registry = _registry(context)
    records, _ = _records(registry)
    columns = tuple(context.dataset.attributes)
    for record in records:
        if record.attributes == columns:
            continue
        missing = [a for a in record.attributes if a not in columns]
        extra = [c for c in columns if c not in record.attributes]
        if missing or extra:
            parts = []
            if missing:
                parts.append(f"dataset lacks {missing}")
            if extra:
                parts.append(f"dataset adds {extra}")
            detail = "; ".join(parts)
        else:
            detail = "same names, different order — positional scoring " \
                     "would silently misalign"
        yield (
            f"{record.spec}: feature set no longer matches the dataset "
            f"({detail}); retrain and republish before serving this data",
            record.spec,
        )


@rule(
    "SERVE007",
    FAMILY_SERVE,
    Severity.WARNING,
    "aliases must point at recorded versions",
)
def check_aliases(context: LintContext) -> Iterator[Finding]:
    registry = _registry(context)
    try:
        document = registry._read_manifest()
    except RegistryError:
        return
    for name in sorted(document["models"]):
        entry = document["models"][name]
        versions = entry.get("versions", {})
        for alias, version in sorted(entry.get("aliases", {}).items()):
            if str(version) not in versions:
                yield (
                    f"{name}@{alias}: alias points at version {version}, "
                    "which the manifest does not record; the alias "
                    "cannot resolve",
                    f"{name}@{alias}",
                )
