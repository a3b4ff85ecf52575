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
        model-<digest>.json          fitted model trees
        json-<digest>.json           generic JSON artifacts (fastsim
                                     calibrations and similar payloads)
        checkpoint-<digest>.json     one completed unit of a fault-
                                     tolerant run (digest of run key
                                     and unit name; see
                                     :func:`repro.resilience.run_units`)
        <entry>.sha256               integrity checksum sidecar
        quarantine/                  corrupt entries, kept for autopsy

Every entry is written by :meth:`ArtifactCache._store` and read by
:meth:`ArtifactCache._load`.  A write goes to a hidden temp file that
replaces the entry atomically, then gains a SHA-256 sidecar of its
bytes; a writer that fails leaves nothing behind.  A load first verifies
the sidecar (when present — pre-checksum entries are still honored but
``repro lint --cache-dir`` flags them), then parses.  A truncated,
tampered, or unparsable entry is *quarantined* — moved into
``quarantine/`` with a warning — and reported as a miss, so corruption
costs one recomputation, never a crash or a wrong result.
"""

from __future__ import annotations

import hashlib
import json
import os
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional, Sequence, Union

from repro._util import stable_hash
from repro.errors import FaultInjected, ReproError
from repro.resilience.faults import maybe_inject

KeyPart = Union[str, int, float]

_SUFFIXES = {
    "dataset": ".csv", "model": ".json", "json": ".json", "checkpoint": ".json",
}

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


def _read_json(path: Path) -> Any:
    with open(path, "r", encoding="utf-8") as handle:
        return json.load(handle)


def _replace_atomically(path: Path, write: Callable[[Path], Any]) -> None:
    """``write`` a hidden temp file, then move it over ``path``.

    The temp name starts with a dot, so it is never mistaken for an
    entry; a writer that raises takes its partial file with it.
    """
    tmp = path.with_name(f".tmp-{path.name}.{os.getpid()}")
    try:
        write(tmp)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


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
    """Content-addressed store for datasets, models and checkpoints.

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
    # The one write path and the one read path
    # ------------------------------------------------------------------
    def _store(
        self,
        kind: str,
        key_parts: Sequence[KeyPart],
        write: Callable[[Path], Any],
    ) -> Path:
        """Write one entry: ``write(tmp)`` fills a temp file that then
        replaces the entry atomically and gains its checksum sidecar.

        An injected ``cache_write`` fault skips the write with a warning:
        the caller continues uncached.
        """
        path = self.path_for(kind, key_parts)
        try:
            maybe_inject("cache_write", path.name)
        except FaultInjected:
            warnings.warn(
                f"cache write for {path.name} failed (injected); "
                "continuing uncached",
                RuntimeWarning,
                stacklevel=3,
            )
            return path
        self.directory.mkdir(parents=True, exist_ok=True)
        _replace_atomically(path, write)
        digest = _file_digest(path)
        _replace_atomically(
            self.checksum_path(path),
            lambda tmp: tmp.write_text(digest + "\n", encoding="utf-8"),
        )
        return path

    def _load(
        self,
        kind: str,
        key_parts: Sequence[KeyPart],
        parse: Callable[[Path], Any],
    ) -> Any:
        """One entry parsed by ``parse(path)``, or ``None`` on a miss.

        An injected ``cache_read`` fault is a silent miss (it models a
        transient read error).  An entry that fails its checksum, or that
        ``parse`` rejects, is quarantined and reported as a miss.
        """
        path = self.path_for(kind, key_parts)
        if not path.exists():
            return None
        try:
            maybe_inject("cache_read", path.name)
        except FaultInjected:
            return None
        if self._verify(path):
            try:
                return parse(path)
            except (ReproError, ValueError, OSError):
                pass
        self.quarantine(path)
        return None

    def _store_json(
        self, kind: str, key_parts: Sequence[KeyPart], payload: Any
    ) -> Path:
        # Serialize before any file exists, so a payload that does not
        # serialize leaves nothing behind.
        try:
            text = json.dumps(payload, indent=1, sort_keys=True)
        except (TypeError, ValueError) as error:
            raise ReproError(
                f"{kind} payload is not serializable: {error}"
            ) from error
        return self._store(
            kind, key_parts, lambda tmp: tmp.write_text(text, encoding="utf-8")
        )

    # ------------------------------------------------------------------
    # Integrity
    # ------------------------------------------------------------------
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
        for moved in (path, self.checksum_path(path)):
            if not moved.exists():
                continue
            try:
                os.replace(moved, self.quarantine_directory / moved.name)
            except OSError:
                moved.unlink(missing_ok=True)
        warnings.warn(
            f"quarantined corrupt cache entry {path.name}; it will be "
            "recomputed on the next request",
            RuntimeWarning,
            stacklevel=4,
        )

    # ------------------------------------------------------------------
    # Entry kinds
    # ------------------------------------------------------------------
    def load_dataset(self, key_parts: Sequence[KeyPart]):
        """The cached dataset for this identity, or ``None`` on a miss."""
        from repro.datasets.csvio import load_csv

        return self._load("dataset", key_parts, load_csv)

    def store_dataset(self, key_parts: Sequence[KeyPart], dataset) -> Path:
        from repro.datasets.csvio import save_csv

        return self._store(
            "dataset", key_parts, lambda tmp: save_csv(dataset, tmp)
        )

    def load_model(self, key_parts: Sequence[KeyPart]):
        """The cached fitted model for this identity, or ``None``.

        Dispatches on the stored document's ``format`` key, so both
        single trees (``repro-m5prime``) and forests (``repro-forest``)
        round-trip through the same cache slot.
        """
        from repro.core.tree.serialize import load_model

        return self._load("model", key_parts, load_model)

    def store_model(self, key_parts: Sequence[KeyPart], model) -> Path:
        from repro.core.tree.serialize import model_to_dict

        text = json.dumps(model_to_dict(model), indent=1)
        return self._store(
            "model", key_parts, lambda tmp: tmp.write_text(text, encoding="utf-8")
        )

    def load_json(self, key_parts: Sequence[KeyPart]):
        """The cached JSON payload (calibrations and the like), or ``None``."""
        return self._load("json", key_parts, _read_json)

    def store_json(self, key_parts: Sequence[KeyPart], payload) -> Path:
        return self._store_json("json", key_parts, payload)

    def load_checkpoint(self, run_key: str, unit: str):
        """One unit's stored result, or ``None`` on a miss.

        A document written for another run or unit, or one without a
        result, is quarantined like any other corrupt entry.
        """

        def parse(path: Path) -> Any:
            document = _read_json(path)
            if (
                not isinstance(document, dict)
                or document.get("run") != run_key
                or document.get("unit") != unit
                or "result" not in document
            ):
                raise ReproError(f"{path.name} is not {run_key}/{unit}")
            return document["result"]

        return self._load("checkpoint", [run_key, unit], parse)

    def store_checkpoint(self, run_key: str, unit: str, result) -> Path:
        """Persist one unit's JSON-ready result for ``run_key``."""
        return self._store_json(
            "checkpoint",
            [run_key, unit],
            {"run": run_key, "unit": unit, "result": result},
        )

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

    def checkpoint_runs(self) -> Dict[str, int]:
        """Run key -> number of stored units, for ``repro cache info``.

        Read from each checkpoint's ``run``; a document that cannot be
        read is skipped (a load would quarantine it).
        """
        runs: Dict[str, int] = {}
        for path in self._entries():
            if not path.name.startswith("checkpoint-"):
                continue
            try:
                run_key = str(_read_json(path)["run"])
            except (OSError, ValueError, KeyError, TypeError):
                continue
            runs[run_key] = runs.get(run_key, 0) + 1
        return dict(sorted(runs.items()))

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
