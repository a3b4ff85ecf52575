"""Set-associative cache model with true LRU replacement.

State is a dict per set; Python dicts preserve insertion order, so the
first key is always the least-recently-used line and a hit re-inserts its
line at the MRU end.  This gives exact LRU at O(1) per access.  A hit on
the line already at the MRU end changes nothing but :attr:`hits`, which
is what lets :meth:`repro.simulator.core.SimulatedCore.run_block` count
repeated fetches from one line in bulk instead of replaying them.
"""

from __future__ import annotations

from typing import Dict, List

from repro.simulator.config import CacheConfig


class SetAssociativeCache:
    """An LRU set-associative cache tracking hits and misses."""

    __slots__ = ("config", "_sets", "_set_mask", "_line_shift", "_assoc", "hits", "misses")

    def __init__(self, config: CacheConfig) -> None:
        self.config = config
        self._assoc = config.associativity
        self._line_shift = config.line_bytes.bit_length() - 1
        self._set_mask = config.n_sets - 1
        self._sets: List[Dict[int, None]] = [dict() for _ in range(config.n_sets)]
        self.hits = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        """Touch the line containing ``addr``; return True on a hit.

        A miss allocates the line (evicting LRU if the set is full); this
        models both demand fills and write-allocate stores.
        """
        line = addr >> self._line_shift
        lines = self._sets[line & self._set_mask]
        if line in lines:
            del lines[line]
            lines[line] = None
            self.hits += 1
            return True
        if len(lines) >= self._assoc:
            del lines[next(iter(lines))]
        lines[line] = None
        self.misses += 1
        return False

    def fill(self, addr: int) -> None:
        """Insert the line containing ``addr`` without touching statistics.

        Used for prefetch fills: a prefetch is not a demand access, so it
        must not count as a hit or miss, but it does allocate (and may
        evict) exactly like one.
        """
        line = addr >> self._line_shift
        lines = self._sets[line & self._set_mask]
        if line in lines:
            del lines[line]
            lines[line] = None
            return
        if len(lines) >= self._assoc:
            del lines[next(iter(lines))]
        lines[line] = None

    def probe(self, addr: int) -> bool:
        """Check residency without updating LRU state or statistics."""
        line = addr >> self._line_shift
        return line in self._sets[line & self._set_mask]

    def flush(self) -> None:
        """Invalidate every line (statistics are preserved)."""
        for lines in self._sets:
            lines.clear()

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    @property
    def occupancy(self) -> int:
        """Number of valid lines currently resident."""
        return sum(len(lines) for lines in self._sets)

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"SetAssociativeCache(size={cfg.size_bytes}, assoc={cfg.associativity}, "
            f"line={cfg.line_bytes}, hits={self.hits}, misses={self.misses})"
        )
