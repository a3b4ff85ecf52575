"""The ``cache`` rule family: artifact-cache integrity (CACHE0xx).

Cached datasets and models feed straight into training and analysis, so
a silently corrupted entry poisons results just as surely as a bad tree.
The runtime defends itself — loads verify checksums and quarantine
mismatches — but these rules let ``repro lint --cache-dir`` audit a
cache *statically*: before a run trusts it, after an incident, or in CI.
``repro lint --registry`` runs them over the registry directory too,
which is an artifact cache of model blobs.

* ``CACHE001`` (warning): an entry has no checksum sidecar, so loads
  cannot verify it (pre-hardening entry or stripped sidecar).
* ``CACHE002`` (error): an entry's bytes disagree with its sidecar —
  the corruption the runtime would quarantine on load.
* ``CACHE003`` (warning): quarantined entries are present, i.e. past
  loads already hit corruption worth investigating.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Iterator, List, Tuple

from repro.lint.context import LintContext
from repro.lint.diagnostics import Severity
from repro.lint.registry import FAMILY_CACHE, rule

if TYPE_CHECKING:
    from repro.parallel.cache import ArtifactCache, EntryStatus

Finding = Tuple[str, str]


def _caches(context: LintContext) -> List["ArtifactCache"]:
    """The artifact cache and the model registry under audit."""
    from repro.parallel.cache import ArtifactCache

    return [
        ArtifactCache(directory)
        for directory in (context.cache_dir, context.registry_dir)
        if directory is not None
    ]


def _scan(context: LintContext) -> Iterator["EntryStatus"]:
    for cache in _caches(context):
        yield from cache.scan()


@rule(
    "CACHE001",
    FAMILY_CACHE,
    Severity.WARNING,
    "every cache entry should carry a checksum sidecar",
)
def check_missing_checksums(context: LintContext) -> Iterator[Finding]:
    from repro.parallel.cache import STATUS_NO_CHECKSUM

    for entry in _scan(context):
        if entry.status == STATUS_NO_CHECKSUM:
            yield (
                f"cache entry {entry.name!r} has no checksum sidecar; "
                "its integrity cannot be verified on load (re-store it "
                "to gain one)",
                entry.name,
            )


@rule(
    "CACHE002",
    FAMILY_CACHE,
    Severity.ERROR,
    "cache entry bytes must match their checksum sidecar",
)
def check_checksum_mismatches(context: LintContext) -> Iterator[Finding]:
    from repro.parallel.cache import STATUS_MISMATCH

    for entry in _scan(context):
        if entry.status == STATUS_MISMATCH:
            yield (
                f"cache entry {entry.name!r} does not match its checksum "
                "sidecar — the entry is corrupt and a load would "
                "quarantine it",
                entry.name,
            )


@rule(
    "CACHE003",
    FAMILY_CACHE,
    Severity.WARNING,
    "a cache should have no quarantined entries",
)
def check_quarantined_entries(context: LintContext) -> Iterator[Finding]:
    for cache in _caches(context):
        quarantined = cache._quarantined()
        if not quarantined:
            continue
        names = ", ".join(p.name for p in quarantined[:5])
        suffix = ", ..." if len(quarantined) > 5 else ""
        yield (
            f"{len(quarantined)} quarantined entr"
            f"{'y' if len(quarantined) == 1 else 'ies'} present "
            f"({names}{suffix}); past loads hit corruption — inspect "
            "them, then delete the quarantine directory",
            str(cache.quarantine_directory),
        )
