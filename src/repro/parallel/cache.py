"""Content-addressed on-disk artifact cache.

Simulating the suite dataset and fitting paper-regime trees are the two
expensive steps every experiment, benchmark and CLI session repeats.
This cache stores both — section datasets as CSV, fitted models as JSON
— under names derived from a stable hash of everything that determines
their content: the :class:`~repro.experiments.config.ExperimentConfig`
fields, the workload and machine fingerprints, and the package version.
Identical inputs always map to the same file, so concurrent sessions
share artifacts; any input change produces a different digest, so stale
artifacts are never served (they are merely orphaned until ``repro
cache clear``).

Layout (under :func:`repro.experiments.config.default_cache_dir`, i.e.
``~/.cache/repro`` or ``$REPRO_CACHE_DIR``)::

    artifacts/
        dataset-<digest>.csv         simulated section datasets
        dataset-<digest>.csv.sha256  integrity checksum sidecar
        model-<digest>.json          fitted model trees
        model-<digest>.json.sha256   integrity checksum sidecar
        json-<digest>.json           generic JSON artifacts (fastsim
                                     calibrations and similar payloads)
        json-<digest>.json.sha256    integrity checksum sidecar
        quarantine/                  corrupt entries, kept for autopsy

Integrity: every store writes a SHA-256 sidecar of the artifact bytes.
A load first verifies the sidecar (when present — pre-checksum entries
are still honored but ``repro lint --cache-dir`` flags them), then
parses.  A truncated, tampered, or unparsable entry is *quarantined* —
moved into ``quarantine/`` with a warning — and reported as a miss, so
corruption costs one recomputation, never a crash or a wrong result.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Union

from repro._util import stable_hash
from repro.errors import FaultInjected, ReproError
from repro.resilience.faults import maybe_inject

KeyPart = Union[str, int, float]

_SUFFIXES = {"dataset": ".csv", "model": ".json", "json": ".json"}

#: Suffix of the integrity sidecar written next to every artifact.
CHECKSUM_SUFFIX = ".sha256"

#: Subdirectory corrupt entries are moved into.
QUARANTINE_DIR = "quarantine"

#: Entry integrity states reported by :meth:`ArtifactCache.scan`.
STATUS_OK = "ok"
STATUS_NO_CHECKSUM = "no-checksum"
STATUS_MISMATCH = "mismatch"


def _file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as handle:
        for chunk in iter(lambda: handle.read(1 << 16), b""):
            digest.update(chunk)
    return digest.hexdigest()


@dataclass(frozen=True)
class CacheInfo:
    """A snapshot of the cache directory's contents."""

    directory: Path
    n_entries: int
    total_bytes: int
    entries: Sequence[str]
    n_quarantined: int = 0

    def render(self) -> str:
        lines = [
            f"cache directory: {self.directory}",
            f"entries: {self.n_entries}",
            f"total size: {self.total_bytes / 1024:.1f} KiB",
        ]
        if self.n_quarantined:
            lines.append(f"quarantined entries: {self.n_quarantined}")
        for name in self.entries:
            lines.append(f"  {name}")
        return "\n".join(lines)


@dataclass(frozen=True)
class EntryStatus:
    """One cache entry's integrity verdict (see :meth:`ArtifactCache.scan`)."""

    name: str
    status: str


class ArtifactCache:
    """Content-addressed store for datasets and fitted models.

    Args:
        directory: Cache root; defaults to ``<default_cache_dir>/artifacts``.
    """

    def __init__(self, directory: Optional[Path] = None) -> None:
        if directory is None:
            from repro.experiments.config import default_cache_dir

            directory = default_cache_dir() / "artifacts"
        self.directory = Path(directory)

    # ------------------------------------------------------------------
    # Addressing
    # ------------------------------------------------------------------
    def path_for(self, kind: str, key_parts: Sequence[KeyPart]) -> Path:
        """The (deterministic) file path for an artifact identity.

        ``kind`` namespaces the digest — a dataset and a model derived
        from the same configuration never collide.
        """
        if kind not in _SUFFIXES:
            raise ReproError(
                f"unknown artifact kind {kind!r}; choose from {sorted(_SUFFIXES)}"
            )
        digest = stable_hash([kind] + [str(p) for p in key_parts])
        return self.directory / f"{kind}-{digest}{_SUFFIXES[kind]}"

    def has(self, kind: str, key_parts: Sequence[KeyPart]) -> bool:
        return self.path_for(kind, key_parts).exists()

    def checksum_path(self, path: Path) -> Path:
        """The sidecar path recording ``path``'s expected SHA-256."""
        return path.with_suffix(path.suffix + CHECKSUM_SUFFIX)

    @property
    def quarantine_directory(self) -> Path:
        return self.directory / QUARANTINE_DIR

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------
    def _write_checksum(self, path: Path) -> None:
        sidecar = self.checksum_path(path)
        tmp = sidecar.with_suffix(sidecar.suffix + f".tmp{os.getpid()}")
        tmp.write_text(_file_digest(path) + "\n", encoding="utf-8")
        os.replace(tmp, sidecar)

    def _verify(self, path: Path) -> bool:
        """Whether ``path`` matches its sidecar (absent sidecar passes)."""
        sidecar = self.checksum_path(path)
        if not sidecar.exists():
            return True
        try:
            expected = sidecar.read_text(encoding="utf-8").strip()
        except OSError:
            return True
        return _file_digest(path) == expected

    def quarantine(self, path: Path) -> None:
        """Move a corrupt entry (and its sidecar) aside with a warning."""
        self.quarantine_directory.mkdir(parents=True, exist_ok=True)
        try:
            os.replace(path, self.quarantine_directory / path.name)
        except OSError:
            path.unlink(missing_ok=True)
        sidecar = self.checksum_path(path)
        if sidecar.exists():
            try:
                os.replace(
                    sidecar, self.quarantine_directory / sidecar.name
                )
            except OSError:
                sidecar.unlink(missing_ok=True)
        warnings.warn(
            f"quarantined corrupt cache entry {path.name}; it will be "
            "recomputed on the next request",
            RuntimeWarning,
            stacklevel=3,
        )

    def _readable(self, path: Path) -> bool:
        """Integrity gate every load passes through.

        Injected ``cache_read`` faults and checksum mismatches both
        surface as a miss: the former silently (it models a transient
        read error), the latter via quarantine.
        """
        try:
            maybe_inject("cache_read", path.name)
        except FaultInjected:
            return False
        if not self._verify(path):
            self.quarantine(path)
            return False
        return True

    # ------------------------------------------------------------------
    # Datasets
    # ------------------------------------------------------------------
    def load_dataset(self, key_parts: Sequence[KeyPart]):
        """The cached dataset for this identity, or ``None`` on a miss."""
        path = self.path_for("dataset", key_parts)
        if not path.exists() or not self._readable(path):
            return None
        from repro.datasets.csvio import load_csv

        try:
            return load_csv(path)
        except ReproError:
            self.quarantine(path)
            return None

    def store_dataset(self, key_parts: Sequence[KeyPart], dataset) -> Path:
        from repro.datasets.csvio import save_csv

        path = self.path_for("dataset", key_parts)
        try:
            maybe_inject("cache_write", path.name)
        except FaultInjected:
            warnings.warn(
                f"cache write for {path.name} failed (injected); "
                "continuing uncached",
                RuntimeWarning,
                stacklevel=2,
            )
            return path
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
        save_csv(dataset, tmp)
        os.replace(tmp, path)
        self._write_checksum(path)
        return path

    # ------------------------------------------------------------------
    # Fitted models
    # ------------------------------------------------------------------
    def load_model(self, key_parts: Sequence[KeyPart]):
        """The cached fitted model for this identity, or ``None``.

        Dispatches on the stored document's ``format`` key, so both
        single trees (``repro-m5prime``) and forests (``repro-forest``)
        round-trip through the same cache slot.
        """
        path = self.path_for("model", key_parts)
        if not path.exists() or not self._readable(path):
            return None
        from repro.core.tree.serialize import load_model

        try:
            return load_model(path)
        except ReproError:
            self.quarantine(path)
            return None

    def store_model(self, key_parts: Sequence[KeyPart], model) -> Path:
        from repro.core.tree.serialize import model_to_dict

        path = self.path_for("model", key_parts)
        try:
            maybe_inject("cache_write", path.name)
        except FaultInjected:
            warnings.warn(
                f"cache write for {path.name} failed (injected); "
                "continuing uncached",
                RuntimeWarning,
                stacklevel=2,
            )
            return path
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(model_to_dict(model), handle, indent=1)
        os.replace(tmp, path)
        self._write_checksum(path)
        return path

    # ------------------------------------------------------------------
    # Generic JSON artifacts (calibrations, certificates, reports)
    # ------------------------------------------------------------------
    def load_json(self, key_parts: Sequence[KeyPart]):
        """The cached JSON payload for this identity, or ``None``.

        A payload that fails to parse is quarantined and reported as a
        miss, exactly like a corrupt dataset or model entry.
        """
        path = self.path_for("json", key_parts)
        if not path.exists() or not self._readable(path):
            return None
        try:
            with open(path, "r", encoding="utf-8") as handle:
                return json.load(handle)
        except (json.JSONDecodeError, UnicodeDecodeError, OSError):
            self.quarantine(path)
            return None

    def store_json(self, key_parts: Sequence[KeyPart], payload) -> Path:
        path = self.path_for("json", key_parts)
        try:
            maybe_inject("cache_write", path.name)
        except FaultInjected:
            warnings.warn(
                f"cache write for {path.name} failed (injected); "
                "continuing uncached",
                RuntimeWarning,
                stacklevel=2,
            )
            return path
        self.directory.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(path.suffix + f".tmp{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, indent=1, sort_keys=True)
        os.replace(tmp, path)
        self._write_checksum(path)
        return path

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def _entries(self) -> List[Path]:
        if not self.directory.is_dir():
            return []
        return sorted(
            p for p in self.directory.iterdir()
            if p.is_file()
            and not p.name.endswith(CHECKSUM_SUFFIX)
            and any(p.name.startswith(k + "-") for k in _SUFFIXES)
        )

    def _quarantined(self) -> List[Path]:
        quarantine = self.quarantine_directory
        if not quarantine.is_dir():
            return []
        return sorted(
            p for p in quarantine.iterdir()
            if p.is_file() and not p.name.endswith(CHECKSUM_SUFFIX)
        )

    def scan(self) -> List[EntryStatus]:
        """Integrity verdict per live entry (``repro lint --cache-dir``).

        ``ok`` — bytes match the sidecar; ``no-checksum`` — a
        pre-hardening entry with no sidecar; ``mismatch`` — bytes
        disagree with the sidecar (corruption; loads would quarantine).
        """
        verdicts = []
        for path in self._entries():
            sidecar = self.checksum_path(path)
            if not sidecar.exists():
                verdicts.append(EntryStatus(path.name, STATUS_NO_CHECKSUM))
            elif self._verify(path):
                verdicts.append(EntryStatus(path.name, STATUS_OK))
            else:
                verdicts.append(EntryStatus(path.name, STATUS_MISMATCH))
        return verdicts

    def info(self) -> CacheInfo:
        entries = self._entries()
        return CacheInfo(
            directory=self.directory,
            n_entries=len(entries),
            total_bytes=sum(p.stat().st_size for p in entries),
            entries=tuple(p.name for p in entries),
            n_quarantined=len(self._quarantined()),
        )

    def clear(self) -> int:
        """Delete every cached artifact; returns the number removed.

        Checksum sidecars and quarantined copies are deleted too but
        not counted — the count stays "artifacts removed".
        """
        removed = 0
        for path in self._entries():
            self.checksum_path(path).unlink(missing_ok=True)
            path.unlink(missing_ok=True)
            removed += 1
        quarantine = self.quarantine_directory
        if quarantine.is_dir():
            for path in quarantine.iterdir():
                if path.is_file():
                    path.unlink(missing_ok=True)
            try:
                quarantine.rmdir()
            except OSError:
                pass
        return removed


def get_artifact_cache(directory: Optional[Path] = None) -> ArtifactCache:
    """The artifact cache rooted at ``directory`` (or the default root)."""
    return ArtifactCache(directory)
