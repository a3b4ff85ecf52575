"""Translation lookaside buffer models.

Core 2 translates data addresses through a small level-0 micro-TLB backed
by a larger last-level DTLB; instruction fetch has its own ITLB.  The
paper's Table I tracks misses at both DTLB levels, so the two-level
structure here is load-bearing: it is what makes ``DtlbL0LdM`` and
``DtlbLdM`` distinct, correlated-but-not-identical attributes.
"""

from __future__ import annotations

from typing import Dict, List, Tuple

from repro.simulator.config import TLBConfig


class TranslationBuffer:
    """A single TLB level (set-associative or fully associative), LRU.

    Its state follows the dict-order LRU contract of
    :mod:`repro.simulator.cache`, keyed by page number (``_page_shift``);
    :meth:`repro.simulator.core.SimulatedCore.run_block` applies the
    update inline.
    """

    __slots__ = ("config", "_sets", "_set_mask", "_page_shift", "_assoc", "hits", "misses")

    def __init__(self, config: TLBConfig) -> None:
        self.config = config
        self._page_shift = config.page_bytes.bit_length() - 1
        if config.associativity == 0:
            n_sets = 1
            self._assoc = config.entries
        else:
            n_sets = config.entries // config.associativity
            self._assoc = config.associativity
        self._set_mask = n_sets - 1
        self._sets: List[Dict[int, None]] = [dict() for _ in range(n_sets)]
        self.hits = 0
        self.misses = 0

    def access(self, addr: int) -> bool:
        """Translate ``addr``; return True on a hit, filling on a miss."""
        page = addr >> self._page_shift
        entries = self._sets[page & self._set_mask]
        if page in entries:
            del entries[page]
            entries[page] = None
            self.hits += 1
            return True
        if len(entries) >= self._assoc:
            del entries[next(iter(entries))]
        entries[page] = None
        self.misses += 1
        return False

    def flush(self) -> None:
        for entries in self._sets:
            entries.clear()

    def reset_stats(self) -> None:
        self.hits = 0
        self.misses = 0

    @property
    def accesses(self) -> int:
        return self.hits + self.misses

    def __repr__(self) -> str:
        cfg = self.config
        return (
            f"TranslationBuffer(entries={cfg.entries}, assoc={cfg.associativity}, "
            f"hits={self.hits}, misses={self.misses})"
        )


class TwoLevelDTLB:
    """Level-0 micro-TLB backed by the last-level DTLB.

    ``access`` returns ``(l0_miss, walk)``: whether the level-0 lookup
    missed, and whether the last level also missed (forcing a page walk).
    The last level is only probed when level 0 misses, matching the
    hardware's filtered event counts.
    """

    __slots__ = ("level0", "level1")

    def __init__(self, level0_config: TLBConfig, level1_config: TLBConfig) -> None:
        self.level0 = TranslationBuffer(level0_config)
        self.level1 = TranslationBuffer(level1_config)

    def access(self, addr: int) -> Tuple[bool, bool]:
        if self.level0.access(addr):
            return False, False
        walk = not self.level1.access(addr)
        return True, walk

    def flush(self) -> None:
        self.level0.flush()
        self.level1.flush()
