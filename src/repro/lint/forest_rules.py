"""The ``forest`` rule family: published-ensemble integrity (FOREST00x).

Thin lint adapters over the static model verifier, in the style of
:mod:`repro.lint.verify_rules`: each ``kind: forest`` registry record's
blob is loaded once with the one model loader
(:func:`repro.core.tree.serialize.load_model`, no quarantine side
effects) and verified once with :func:`repro.verify.verify_model`, and
each rule surfaces its slice of the findings, so a registry audit and
a publish-time verification agree finding for finding:

* ``FOREST001`` (error): the manifest says ``forest`` but the blob is
  another format, the loader rejects the blob (unreadable JSON, a tree
  count or refined-weight length that contradicts the trees, any
  malformed field), or the verifier reports an ERROR inside a member
  tree — the message names ``tree[i]`` and the VERIFY id.
* ``FOREST002`` (error): arena offsets inconsistent with the trees.
* ``FOREST003`` (error): refined weight/active vectors that do not
  cover every leaf, or every refined leaf pruned.
* ``FOREST004`` (error): non-finite refined weights among active
  leaves.
* ``FOREST005`` (warning): a member tree whose every leaf the
  refinement pass pruned — it costs routing work and contributes
  nothing.
* ``FOREST006`` (warning): a single-tree "forest" — bagging overhead
  without aggregation benefit.

Member-tree warnings stay unreported here; ``repro verify`` shows them.
Like the SERVE family, these run whenever ``--registry`` is given; a
registry with no forest entries yields no findings.
"""

from __future__ import annotations

from typing import Iterator, List, Optional, Tuple

from repro.errors import ReproError
from repro.lint.context import LintContext
from repro.lint.diagnostics import Severity
from repro.lint.registry import FAMILY_FOREST, rule
from repro.lint.serve_rules import _records, _registry

Finding = Tuple[str, str]

#: One load-and-verify pass shared by all six rules of a lint pass:
#: ``(context, [(rule id, message, spec), ...])``.  Holding the context
#: itself keeps its identity from being reused by a later pass.
_MEMO: Optional[Tuple[LintContext, List[Tuple[str, str, str]]]] = None


def _audit(context: LintContext) -> Iterator[Tuple[str, str, str]]:
    from repro.core.tree.m5 import M5Prime
    from repro.core.tree.serialize import load_model
    from repro.verify import verify_model

    registry = _registry(context)
    records, failure = _records(registry)
    if failure is not None:
        return
    for record in records:
        if record.kind != "forest":
            continue
        spec = record.spec
        path = registry.directory / record.blob
        if not path.exists():
            # SERVE002 already owns the missing-blob finding.
            continue
        try:
            model = load_model(path)
        except ReproError as exc:
            yield "FOREST001", (
                f"{spec}: blob {path.name!r} does not load as a forest "
                f"({exc}); republish the forest"
            ), spec
            continue
        if isinstance(model, M5Prime):
            yield "FOREST001", (
                f"{spec}: manifest kind is 'forest' but the blob's format "
                "is 'repro-m5prime'; the manifest no longer describes the "
                "stored artifact"
            ), spec
            continue
        for diagnostic in verify_model(model).diagnostics:
            if diagnostic.rule_id.startswith("FOREST"):
                yield diagnostic.rule_id, f"{spec}: {diagnostic.message}", spec
            elif diagnostic.severity is Severity.ERROR:
                where = f"{diagnostic.location}: " if diagnostic.location else ""
                yield "FOREST001", (
                    f"{spec}: {where}{diagnostic.rule_id} "
                    f"{diagnostic.message}; refit and republish the forest"
                ), spec


def _slice(context: LintContext, rule_id: str) -> Iterator[Finding]:
    global _MEMO
    if _MEMO is None or _MEMO[0] is not context:
        _MEMO = (context, list(_audit(context)))
    for finding_id, message, spec in _MEMO[1]:
        if finding_id == rule_id:
            yield message, spec


@rule(
    "FOREST001",
    FAMILY_FOREST,
    Severity.ERROR,
    "forest blobs must load as repro-forest documents with sound trees",
)
def check_forest_blobs(context: LintContext) -> Iterator[Finding]:
    yield from _slice(context, "FOREST001")


@rule(
    "FOREST002",
    FAMILY_FOREST,
    Severity.ERROR,
    "the forest arena's offsets must match its trees",
)
def check_arena_offsets(context: LintContext) -> Iterator[Finding]:
    yield from _slice(context, "FOREST002")


@rule(
    "FOREST003",
    FAMILY_FOREST,
    Severity.ERROR,
    "refined weight vectors must cover every forest leaf, some active",
)
def check_refined_length(context: LintContext) -> Iterator[Finding]:
    yield from _slice(context, "FOREST003")


@rule(
    "FOREST004",
    FAMILY_FOREST,
    Severity.ERROR,
    "active refined weights must be finite",
)
def check_refined_finite(context: LintContext) -> Iterator[Finding]:
    yield from _slice(context, "FOREST004")


@rule(
    "FOREST005",
    FAMILY_FOREST,
    Severity.WARNING,
    "every member tree should keep at least one active leaf",
)
def check_dead_trees(context: LintContext) -> Iterator[Finding]:
    yield from _slice(context, "FOREST005")


@rule(
    "FOREST006",
    FAMILY_FOREST,
    Severity.WARNING,
    "a forest should aggregate more than one tree",
)
def check_single_tree(context: LintContext) -> Iterator[Finding]:
    yield from _slice(context, "FOREST006")
