"""The simulated core: replays instruction blocks through all components.

:class:`SimulatedCore` owns the caches, TLBs, branch predictor and store
buffer, replays an :class:`~repro.simulator.isa.InstructionBlock` through
them, hands the resulting event flags to the cycle-accounting pipeline,
and emits raw PMU counts with the exact architectural event names of
Table I.  Structures that share state are replayed together in program
order; independent ones replay on their own (see :meth:`run_block`).

Component state persists across blocks (warm caches), mirroring
continuous collection on real hardware; call :meth:`reset` between
unrelated workloads.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional

import numpy as np

from repro._util import RandomState, check_random_state
from repro.counters import events as ev
from repro.simulator.branch import GsharePredictor
from repro.simulator.cache import SetAssociativeCache
from repro.simulator.config import MachineConfig
from repro.simulator.isa import (
    InstructionBlock,
    KIND_BRANCH,
    KIND_LOAD,
    KIND_STORE,
)
from repro.simulator.memdep import BLOCK_OVERLAP, BLOCK_STA, BLOCK_STD, StoreBuffer
from repro.simulator.pipeline import CycleAccounting, CycleBreakdown, SectionEvents
from repro.simulator.tlb import TranslationBuffer, TwoLevelDTLB

#: Wrong-path instructions executed per branch mispredict before the flush,
#: used to model the speculative component of the DTLB_MISSES events
#: (which, unlike MEM_LOAD_RETIRED.DTLB_MISS, count speculative activity).
WRONG_PATH_DEPTH = 6


@dataclass
class BlockResult:
    """Everything the core produces for one replayed block."""

    counts: Dict[str, float]
    cycles: float
    breakdown: CycleBreakdown
    events: SectionEvents

    @property
    def cpi(self) -> float:
        return self.cycles / self.counts[ev.INST_RETIRED_ANY.name]


class SimulatedCore:
    """A Core 2 Duo-like core with PMU-style event collection."""

    def __init__(self, config: Optional[MachineConfig] = None, rng: RandomState = None) -> None:
        self.config = config or MachineConfig()
        self.rng = check_random_state(rng)
        self.l1i = SetAssociativeCache(self.config.l1i)
        self.l1d = SetAssociativeCache(self.config.l1d)
        self.l2 = SetAssociativeCache(self.config.l2)
        self.dtlb = TwoLevelDTLB(self.config.dtlb0, self.config.dtlb)
        self.itlb = TranslationBuffer(self.config.itlb)
        self.predictor = GsharePredictor(self.config.branch_history_bits)
        self.store_buffer = StoreBuffer(self.config.store_buffer_window)
        self.accounting = CycleAccounting(self.config)

    def statistics(self):
        """Hit/miss statistics of every component since construction/reset."""
        from repro.simulator.stats import collect_stats

        return collect_stats(self)

    def reset(self) -> None:
        """Cold-start all micro-architectural state."""
        self.l1i.flush()
        self.l1d.flush()
        self.l2.flush()
        self.dtlb.flush()
        self.itlb.flush()
        self.predictor.reset()
        self.store_buffer.clear()

    # ------------------------------------------------------------------
    def run_block(self, block: InstructionBlock) -> BlockResult:
        """Replay one block and return counts, cycles and event detail.

        Only the coupled hierarchy needs program order: L1I and L1D share
        the L2, and the DTLB rides along with the data accesses.  The
        ITLB, the branch predictor and the store buffer each see one
        stream of their own, so they replay separately.  A fetch from the
        line (page) of the previous fetch is an L1I (ITLB) hit that keeps
        LRU order, so only line- and page-changing fetches are visited.

        The passes make no per-access method calls: each reads its
        structures' set lists, masks, shifts and associativities into
        locals, applies the dict-order LRU update of
        :mod:`repro.simulator.cache` inline, and adds its hit and miss
        counts to the structures once per block.
        """
        n = len(block)
        config = self.config
        line_bytes = config.l1d.line_bytes
        fetch_line_bytes = config.l1i.line_bytes

        kinds = block.kind
        pcs = block.pc
        is_load = kinds == KIND_LOAD
        is_store = kinds == KIND_STORE
        is_branch = kinds == KIND_BRANCH
        is_memory = is_load | is_store
        split = block.split_mask(line_bytes)

        blocked = self.store_buffer.classify(block)

        # ITLB: fetches that stay on the previous fetch's page hit.
        itlb = self.itlb
        page_sets, page_mask, page_assoc = itlb._sets, itlb._set_mask, itlb._assoc
        page_fetches = np.flatnonzero(_changes(pcs, config.itlb.page_bytes))
        itlb_misses: List[int] = []
        for i, page in zip(
            page_fetches.tolist(), (pcs[page_fetches] >> itlb._page_shift).tolist()
        ):
            entries = page_sets[page & page_mask]
            if entries.pop(page, 1) is not None:
                if len(entries) >= page_assoc:
                    del entries[next(iter(entries))]
                itlb_misses.append(i)
            entries[page] = None
        itlb.hits += n - len(itlb_misses)
        itlb.misses += len(itlb_misses)

        # Branch predictor (gshare, 2-bit counters): branches only.
        predictor = self.predictor
        table = predictor._table
        history = predictor._history
        history_mask = predictor._mask
        branches = np.flatnonzero(is_branch)
        mispredicts: List[int] = []
        for i, pc, taken in zip(
            branches.tolist(),
            pcs[branches].tolist(),
            block.taken[branches].tolist(),
        ):
            index = ((pc >> 2) ^ history) & history_mask
            counter = table[index]
            if taken:
                if counter < 3:
                    table[index] = counter + 1
                if counter < 2:
                    mispredicts.append(i)
                history = ((history << 1) | 1) & history_mask
            else:
                if counter > 0:
                    table[index] = counter - 1
                if counter >= 2:
                    mispredicts.append(i)
                history = (history << 1) & history_mask
        predictor._history = history
        predictor.incorrect += len(mispredicts)
        predictor.correct += branches.size - len(mispredicts)

        # L1I/L1D/L2 and DTLB in program order: memory ops, plus fetches
        # that leave the previous fetch's line (the rest hit).
        new_line = _changes(pcs, fetch_line_bytes)
        prefetch = config.prefetch_next_line
        if prefetch and config.l1i.n_sets == 1:
            # One set: the next-line fill lands beside the demand line
            # and reorders it, so a same-line fetch is no longer a no-op.
            new_line[:] = True

        steps = np.flatnonzero(new_line | is_memory)
        addrs = block.addr[steps]
        # ``second`` equals ``addr`` unless the access splits a line (a
        # split access spans at least two bytes, so the two then differ).
        seconds = np.where(split[steps], addrs + block.size[steps] - 1, addrs)
        fetch_misses: List[int] = []
        fetch_l2_misses: List[int] = []
        data_misses: List[int] = []
        data_l2_misses: List[int] = []
        dtlb0_misses: List[int] = []
        dtlb_walks: List[int] = []
        split_accesses = split_l1d_misses = split_l2_misses = 0
        l1i, l1d, l2 = self.l1i, self.l1d, self.l2
        i_sets, i_mask, i_shift, i_assoc = (
            l1i._sets, l1i._set_mask, l1i._line_shift, l1i._assoc
        )
        # L1D and L2 share a line size (MachineConfig checks it), so a
        # data address has one line number at both levels.
        d_sets, d_mask, d_shift, d_assoc = (
            l1d._sets, l1d._set_mask, l1d._line_shift, l1d._assoc
        )
        l2_sets, l2_mask, l2_shift, l2_assoc = (
            l2._sets, l2._set_mask, l2._line_shift, l2._assoc
        )
        level0, level1 = self.dtlb.level0, self.dtlb.level1
        p0_sets, p0_mask, p0_shift, p0_assoc = (
            level0._sets, level0._set_mask, level0._page_shift, level0._assoc
        )
        p1_sets, p1_mask, p1_shift, p1_assoc = (
            level1._sets, level1._set_mask, level1._page_shift, level1._assoc
        )
        # Stream-detector state for the data prefetcher: when consecutive
        # demand misses hit adjacent lines (an ascending sweep), the
        # prefetcher runs ahead several lines, like Core 2's DPL.
        last_miss_line = -(1 << 60)
        stream_depth = 8

        # Each structure below is updated as in SetAssociativeCache: pop
        # the key (``None`` back means a hit), evict the first key when a
        # miss finds the set full, and re-insert the key at the MRU end.
        for i, fetch, pc, memory, addr, second in zip(
            steps.tolist(),
            new_line[steps].tolist(),
            pcs[steps].tolist(),
            is_memory[steps].tolist(),
            addrs.tolist(),
            seconds.tolist(),
        ):
            if fetch:
                line = pc >> i_shift
                lines = i_sets[line & i_mask]
                if lines.pop(line, 1) is not None:
                    if len(lines) >= i_assoc:
                        del lines[next(iter(lines))]
                    lines[line] = None
                    fetch_misses.append(i)
                    line = pc >> l2_shift
                    lines = l2_sets[line & l2_mask]
                    if lines.pop(line, 1) is not None:
                        if len(lines) >= l2_assoc:
                            del lines[next(iter(lines))]
                        fetch_l2_misses.append(i)
                    lines[line] = None
                    if prefetch:
                        # Sequential front-end prefetch: the next line
                        # follows the demand miss into both cache levels.
                        line = (pc + fetch_line_bytes) >> i_shift
                        lines = i_sets[line & i_mask]
                        if lines.pop(line, 1) is not None and len(lines) >= i_assoc:
                            del lines[next(iter(lines))]
                        lines[line] = None
                        line = (pc + fetch_line_bytes) >> l2_shift
                        lines = l2_sets[line & l2_mask]
                        if lines.pop(line, 1) is not None and len(lines) >= l2_assoc:
                            del lines[next(iter(lines))]
                        lines[line] = None
                else:
                    lines[line] = None
            if not memory:
                continue
            # DTLB: level 0, then the last level on a level-0 miss.
            page = addr >> p0_shift
            entries = p0_sets[page & p0_mask]
            if entries.pop(page, 1) is not None:
                if len(entries) >= p0_assoc:
                    del entries[next(iter(entries))]
                dtlb0_misses.append(i)
                entries[page] = None
                page = addr >> p1_shift
                entries = p1_sets[page & p1_mask]
                if entries.pop(page, 1) is not None:
                    if len(entries) >= p1_assoc:
                        del entries[next(iter(entries))]
                    dtlb_walks.append(i)
            entries[page] = None
            line = addr >> d_shift
            lines = d_sets[line & d_mask]
            if lines.pop(line, 1) is not None:
                if len(lines) >= d_assoc:
                    del lines[next(iter(lines))]
                lines[line] = None
                data_misses.append(i)
                lines = l2_sets[line & l2_mask]
                if lines.pop(line, 1) is not None:
                    if len(lines) >= l2_assoc:
                        del lines[next(iter(lines))]
                    data_l2_misses.append(i)
                lines[line] = None
                if prefetch:
                    # Streamer: adjacent lines follow a demand miss, and a
                    # detected ascending sweep is run ahead of (this is
                    # what hides strided workloads on Core 2).
                    depth = stream_depth if 0 < line - last_miss_line <= 2 else 1
                    last_miss_line = line
                    for ahead in range(line + 1, line + depth + 1):
                        lines = d_sets[ahead & d_mask]
                        if lines.pop(ahead, 1) is not None and len(lines) >= d_assoc:
                            del lines[next(iter(lines))]
                        lines[ahead] = None
                        lines = l2_sets[ahead & l2_mask]
                        if lines.pop(ahead, 1) is not None and len(lines) >= l2_assoc:
                            del lines[next(iter(lines))]
                        lines[ahead] = None
            else:
                lines[line] = None
            if second != addr:
                split_accesses += 1
                line = second >> d_shift
                lines = d_sets[line & d_mask]
                if lines.pop(line, 1) is not None:
                    if len(lines) >= d_assoc:
                        del lines[next(iter(lines))]
                    lines[line] = None
                    split_l1d_misses += 1
                    lines = l2_sets[line & l2_mask]
                    if lines.pop(line, 1) is not None:
                        if len(lines) >= l2_assoc:
                            del lines[next(iter(lines))]
                        split_l2_misses += 1
                    lines[line] = None
                else:
                    lines[line] = None

        _count(l1i, n, len(fetch_misses))
        n_memory = int(np.count_nonzero(is_memory))
        _count(l1d, n_memory + split_accesses, len(data_misses) + split_l1d_misses)
        _count(
            l2,
            len(fetch_misses) + len(data_misses) + split_l1d_misses,
            len(fetch_l2_misses) + len(data_l2_misses) + split_l2_misses,
        )
        _count(level0, n_memory, len(dtlb0_misses))
        _count(level1, len(dtlb0_misses), len(dtlb_walks))

        l1d_missed = _flags(n, data_misses)
        l2_missed = _flags(n, data_l2_misses)
        walked = _flags(n, dtlb_walks)
        events = SectionEvents(
            is_load=is_load,
            is_store=is_store,
            is_branch=is_branch,
            l1dm=l1d_missed & is_load,
            l2m=l2_missed & is_load,
            store_l1m=l1d_missed & is_store,
            store_l2m=l2_missed & is_store,
            l1im=_flags(n, fetch_misses),
            l2im=_flags(n, fetch_l2_misses),
            itlbm=_flags(n, itlb_misses),
            dtlb0_ld=_flags(n, dtlb0_misses) & is_load,
            dtlb_walk_ld=walked & is_load,
            dtlb_walk_st=walked & is_store,
            mispred=_flags(n, mispredicts),
            ldbl_sta=blocked == BLOCK_STA,
            ldbl_std=blocked == BLOCK_STD,
            ldbl_ov=blocked == BLOCK_OVERLAP,
            misal=block.misaligned_mask(),
            split_ld=split & is_load,
            split_st=split & is_store,
            lcp=block.lcp,
            ilp=block.ilp,
            dependent_miss_fraction=block.dependent_miss_fraction,
        )
        return self._complete(block, events)

    def _complete(self, block: InstructionBlock, events: SectionEvents) -> BlockResult:
        """Price a replayed block's events and emit its PMU counts."""
        breakdown = self.accounting.account(events)
        cycles = breakdown.total
        noise_sd = self.config.measurement_noise_sd
        if noise_sd > 0:
            cycles *= max(0.5, 1.0 + self.rng.normal(0.0, noise_sd))

        counts = self._assemble_counts(block, events, cycles)
        return BlockResult(counts=counts, cycles=cycles, breakdown=breakdown, events=events)

    # ------------------------------------------------------------------
    def _assemble_counts(
        self, block: InstructionBlock, events: SectionEvents, cycles: float
    ) -> Dict[str, float]:
        """Translate event flags into raw PMU counter values."""
        n = len(block)
        n_loads = int(np.count_nonzero(events.is_load))
        n_branches = int(np.count_nonzero(events.is_branch))
        n_mispred = int(np.count_nonzero(events.mispred))
        retired_walk_ld = int(np.count_nonzero(events.dtlb_walk_ld))
        walk_st = int(np.count_nonzero(events.dtlb_walk_st))

        # DTLB_MISSES.* count speculative activity as well; model the
        # wrong-path component from the mispredict count, the load mix and
        # the retired walk rate.
        load_fraction = n_loads / n
        walk_rate = retired_walk_ld / n_loads if n_loads else 0.0
        speculative_walks = n_mispred * WRONG_PATH_DEPTH * load_fraction * walk_rate

        return {
            ev.CPU_CLK_UNHALTED_CORE.name: float(cycles),
            ev.INST_RETIRED_ANY.name: float(n),
            ev.INST_RETIRED_LOADS.name: float(n_loads),
            ev.INST_RETIRED_STORES.name: float(np.count_nonzero(events.is_store)),
            ev.BR_INST_RETIRED_ANY.name: float(n_branches),
            ev.BR_INST_RETIRED_MISPRED.name: float(n_mispred),
            ev.MEM_LOAD_RETIRED_L1D_LINE_MISS.name: float(np.count_nonzero(events.l1dm)),
            ev.L1I_MISSES.name: float(np.count_nonzero(events.l1im)),
            ev.MEM_LOAD_RETIRED_L2_LINE_MISS.name: float(np.count_nonzero(events.l2m)),
            ev.DTLB_MISSES_L0_MISS_LD.name: float(np.count_nonzero(events.dtlb0_ld)),
            ev.DTLB_MISSES_MISS_LD.name: float(retired_walk_ld + speculative_walks),
            ev.MEM_LOAD_RETIRED_DTLB_MISS.name: float(retired_walk_ld),
            ev.DTLB_MISSES_ANY.name: float(
                retired_walk_ld + walk_st + speculative_walks
            ),
            ev.ITLB_MISS_RETIRED.name: float(np.count_nonzero(events.itlbm)),
            ev.LOAD_BLOCK_STA.name: float(np.count_nonzero(events.ldbl_sta)),
            ev.LOAD_BLOCK_STD.name: float(np.count_nonzero(events.ldbl_std)),
            ev.LOAD_BLOCK_OVERLAP_STORE.name: float(np.count_nonzero(events.ldbl_ov)),
            ev.MISALIGN_MEM_REF.name: float(np.count_nonzero(events.misal)),
            ev.L1D_SPLIT_LOADS.name: float(np.count_nonzero(events.split_ld)),
            ev.L1D_SPLIT_STORES.name: float(np.count_nonzero(events.split_st)),
            ev.ILD_STALL.name: float(np.count_nonzero(events.lcp)),
        }

    # ------------------------------------------------------------------
    def run_blocks(self, blocks: Iterable[InstructionBlock]) -> List[BlockResult]:
        """Replay several blocks back to back (state carries over)."""
        return [self.run_block(block) for block in blocks]


def _changes(pcs: np.ndarray, granule_bytes: int) -> np.ndarray:
    """Where the fetch address enters a new ``granule_bytes`` granule.

    The first fetch of a block always counts: whatever ran between two
    blocks may have disturbed the structure.
    """
    granule = pcs >> (granule_bytes.bit_length() - 1)
    changed = np.empty(granule.shape[0], dtype=bool)
    changed[0] = True
    np.not_equal(granule[1:], granule[:-1], out=changed[1:])
    return changed


def _count(structure, accesses: int, misses: int) -> None:
    """Add one pass's accesses and misses to a cache's or TLB's statistics."""
    structure.hits += accesses - misses
    structure.misses += misses


def _flags(n: int, indices: List[int]) -> np.ndarray:
    """A length-``n`` boolean mask set at ``indices``."""
    mask = np.zeros(n, dtype=bool)
    mask[indices] = True
    return mask
