"""Set-associative cache model with true LRU replacement.

State is a list of per-set dicts, ``_sets``, keyed by line number (the
address shifted right by ``_line_shift``) with ``None`` values; a line
lives in set ``line & _set_mask``, which holds at most ``_assoc`` keys.
Python dicts preserve insertion order, and that order *is* the recency
order: the first key is the least-recently-used line, and every touch
re-inserts its line at the MRU end, evicting the first key when a miss
finds the set full.  This gives exact LRU at O(1) per access.

The dict order is a contract, not an implementation detail:
:meth:`repro.simulator.core.SimulatedCore.run_block` reads ``_sets``,
``_set_mask``, ``_line_shift`` and ``_assoc`` into loop locals and
applies this same update inline instead of calling :meth:`access` and
:meth:`fill` per instruction, as :meth:`fill_many` does for a run of
fills.  A hit on the line already at the MRU end changes nothing
but :attr:`hits`, which is what lets ``run_block`` count repeated fetches
from one line in bulk instead of replaying them.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

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

    def fill_many(self, addrs: np.ndarray) -> None:
        """:meth:`fill` every address of ``addrs``, in order.

        The LRU update is applied inline over the whole run, so a caller
        with thousands of fills (prewarm) pays no method call per line.
        """
        sets = self._sets
        set_mask = self._set_mask
        assoc = self._assoc
        shifted = np.asarray(addrs, dtype=np.int64) >> self._line_shift
        for line in shifted.tolist():
            lines = sets[line & set_mask]
            if lines.pop(line, 1) is not None and len(lines) >= assoc:
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
