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
        new_page = _changes(pcs, config.itlb.page_bytes)
        itlb_access = self.itlb.access
        page_fetches = np.flatnonzero(new_page)
        itlb_misses = [
            i
            for i, pc in zip(page_fetches.tolist(), pcs[page_fetches].tolist())
            if not itlb_access(pc)
        ]
        self.itlb.hits += n - page_fetches.size

        # Branch predictor: branches only.
        predict = self.predictor.access
        branches = np.flatnonzero(is_branch)
        mispredicts = [
            i
            for i, pc, taken in zip(
                branches.tolist(),
                pcs[branches].tolist(),
                block.taken[branches].tolist(),
            )
            if not predict(pc, taken)
        ]

        # L1I/L1D/L2 and DTLB in program order: memory ops, plus fetches
        # that leave the previous fetch's line (the rest hit).
        new_line = _changes(pcs, fetch_line_bytes)
        prefetch = config.prefetch_next_line
        if prefetch and config.l1i.n_sets == 1:
            # One set: the next-line fill lands beside the demand line
            # and reorders it, so a same-line fetch is no longer a no-op.
            new_line[:] = True
        self.l1i.hits += n - int(np.count_nonzero(new_line))

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
        l1i_access = self.l1i.access
        l1d_access = self.l1d.access
        l2_access = self.l2.access
        l1i_fill = self.l1i.fill
        l1d_fill = self.l1d.fill
        l2_fill = self.l2.fill
        dtlb_access = self.dtlb.access
        # Stream-detector state for the data prefetcher: when consecutive
        # demand misses hit adjacent lines (an ascending sweep), the
        # prefetcher runs ahead several lines, like Core 2's DPL.
        last_miss_line = -(1 << 60)
        stream_depth = 8
        line_shift = line_bytes.bit_length() - 1

        for i, fetch, pc, memory, addr, second in zip(
            steps.tolist(),
            new_line[steps].tolist(),
            pcs[steps].tolist(),
            is_memory[steps].tolist(),
            addrs.tolist(),
            seconds.tolist(),
        ):
            if fetch and not l1i_access(pc):
                fetch_misses.append(i)
                if not l2_access(pc):
                    fetch_l2_misses.append(i)
                if prefetch:
                    # Sequential front-end prefetch: the next line follows
                    # the demand miss into both cache levels.
                    l1i_fill(pc + fetch_line_bytes)
                    l2_fill(pc + fetch_line_bytes)
            if not memory:
                continue
            l0_miss, walk = dtlb_access(addr)
            if l0_miss:
                dtlb0_misses.append(i)
                if walk:
                    dtlb_walks.append(i)
            if not l1d_access(addr):
                data_misses.append(i)
                if not l2_access(addr):
                    data_l2_misses.append(i)
                if prefetch:
                    # Streamer: adjacent lines follow a demand miss, and a
                    # detected ascending sweep is run ahead of (this is
                    # what hides strided workloads on Core 2).
                    miss_line = addr >> line_shift
                    depth = (
                        stream_depth if 0 < miss_line - last_miss_line <= 2 else 1
                    )
                    last_miss_line = miss_line
                    for ahead in range(1, depth + 1):
                        l1d_fill(addr + ahead * line_bytes)
                        l2_fill(addr + ahead * line_bytes)
            if second != addr and not l1d_access(second):
                l2_access(second)

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


def _flags(n: int, indices: List[int]) -> np.ndarray:
    """A length-``n`` boolean mask set at ``indices``."""
    mask = np.zeros(n, dtype=bool)
    mask[indices] = True
    return mask
