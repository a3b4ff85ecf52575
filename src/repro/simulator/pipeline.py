"""Cycle-accounting pipeline model with penalty overlap.

The paper's central observation is that event penalties on an
out-of-order machine are *not additive*: independent work proceeds under
a load miss, L2 misses overlap each other (memory-level parallelism), and
short penalties disappear entirely in the shadow of long ones.  This
module turns per-instruction event flags into cycles using exactly those
mechanisms:

* every long-latency miss is discounted by the memory-level parallelism
  observed in a ROB-sized window around it, damped by the block's
  dependent-miss (pointer-chasing) fraction;
* short penalties are scaled by ``1 - hide * ilp`` for the block's
  instruction-level parallelism; and
* any penalty occurring in the shadow of an outstanding L2 miss is
  further discounted, because the machine was stalled anyway.

The result is a ground-truth CPI whose relationship to the Table I
counters is piecewise and interaction-heavy — the regime in which naive
fixed-penalty accounting fails and model trees are claimed to work.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields
from typing import Dict

import numpy as np

from repro.errors import ConfigError, DataError
from repro.simulator.config import MachineConfig


@dataclass
class SectionEvents:
    """Per-instruction event flags for one section, plus block scalars.

    All arrays share the block length; boolean unless noted.  Produced by
    :meth:`repro.simulator.core.SimulatedCore.run_block`.
    """

    is_load: np.ndarray
    is_store: np.ndarray
    is_branch: np.ndarray
    l1dm: np.ndarray            # retired loads missing L1D (includes L2 misses)
    l2m: np.ndarray             # retired loads missing L2
    store_l1m: np.ndarray       # stores missing L1D
    store_l2m: np.ndarray       # stores missing L2
    l1im: np.ndarray            # instruction fetches missing L1I
    l2im: np.ndarray            # instruction fetches missing L2 as well
    itlbm: np.ndarray           # ITLB misses
    dtlb0_ld: np.ndarray        # loads missing the level-0 DTLB
    dtlb_walk_ld: np.ndarray    # loads forcing a page walk
    dtlb_walk_st: np.ndarray    # stores forcing a page walk
    mispred: np.ndarray         # mispredicted branches
    ldbl_sta: np.ndarray
    ldbl_std: np.ndarray
    ldbl_ov: np.ndarray
    misal: np.ndarray           # misaligned memory references
    split_ld: np.ndarray        # line-split loads
    split_st: np.ndarray        # line-split stores
    lcp: np.ndarray             # length-changing-prefix stalls
    ilp: float = 0.5
    dependent_miss_fraction: float = 0.0

    def __post_init__(self) -> None:
        arrays = [
            getattr(self, f.name)
            for f in fields(self)
            if f.name not in ("ilp", "dependent_miss_fraction")
        ]
        n = arrays[0].shape[0]
        if n == 0:
            raise DataError("section must contain at least one instruction")
        for arr in arrays:
            if arr.shape[0] != n:
                raise DataError("all event arrays must share the block length")
        if not 0.0 <= self.ilp <= 1.0:
            raise DataError("ilp must lie in [0, 1]")
        if not 0.0 <= self.dependent_miss_fraction <= 1.0:
            raise DataError("dependent_miss_fraction must lie in [0, 1]")

    def __len__(self) -> int:
        return int(self.is_load.shape[0])


@dataclass(frozen=True)
class OverlapModel:
    """Tunable coefficients of the overlap machinery.

    Attributes:
        ilp_hide_ooo: Max fraction of an out-of-order-hideable short
            penalty removed at ilp = 1 (execution-side penalties).
        ilp_hide_frontend: Same for front-end penalties, which the decode
            queue absorbs less effectively.
        shadow_discount: Multiplier applied to short penalties landing in
            the shadow of an outstanding L2 miss.
        walk_shadow_discount: Same for page walks, which overlap memory
            stalls only partially.
        store_miss_exposure: Fraction of a store's memory latency exposed
            (write buffers hide most of it).
        mispredict_shadow_discount: Multiplier for branch-flush penalties
            inside an L2-miss shadow.
        frontend_data_overlap: Fraction of the *smaller* of the front-end
            memory stall and the data memory stall hidden under the
            larger.  When instruction fetch starves the machine, data
            misses resolve in its shadow (and vice versa) — this is what
            makes a fetch-bound phase's CPI saturate into the paper's
            constant-valued LM18 class.
    """

    ilp_hide_ooo: float = 0.75
    ilp_hide_frontend: float = 0.45
    shadow_discount: float = 0.30
    walk_shadow_discount: float = 0.25
    store_miss_exposure: float = 0.15
    mispredict_shadow_discount: float = 0.35
    frontend_data_overlap: float = 0.75

    def __post_init__(self) -> None:
        for f in fields(self):
            value = getattr(self, f.name)
            if not 0.0 <= value <= 1.0:
                raise ConfigError(f"{f.name} must lie in [0, 1], got {value}")


@dataclass(frozen=True)
class IssueCosts:
    """Base issue cost per instruction kind (cycles per instruction).

    ``1 / issue_width`` is the floor; memory and branch instructions add
    port-pressure terms on top.
    """

    load_extra: float = 0.05
    store_extra: float = 0.08
    branch_extra: float = 0.02

    def __post_init__(self) -> None:
        for f in fields(self):
            if getattr(self, f.name) < 0:
                raise ConfigError(f"{f.name} must be non-negative")


@dataclass
class CycleBreakdown:
    """Cycles attributed to each penalty category for one section."""

    base: float = 0.0
    load_l2_miss: float = 0.0
    store_l2_miss: float = 0.0
    load_l1_miss: float = 0.0
    store_l1_miss: float = 0.0
    ifetch: float = 0.0
    itlb: float = 0.0
    dtlb: float = 0.0
    branch: float = 0.0
    load_block: float = 0.0
    alignment: float = 0.0
    lcp: float = 0.0

    @property
    def total(self) -> float:
        return float(sum(getattr(self, f.name) for f in fields(self)))

    def as_dict(self) -> Dict[str, float]:
        return {f.name: float(getattr(self, f.name)) for f in fields(self)}


class CycleAccounting:
    """Computes cycles for a section from its event flags."""

    def __init__(
        self,
        config: MachineConfig,
        overlap: OverlapModel = OverlapModel(),
        issue_costs: IssueCosts = IssueCosts(),
    ) -> None:
        self.config = config
        self.overlap = overlap
        self.issue_costs = issue_costs

    # ------------------------------------------------------------------
    def account(self, events: SectionEvents) -> CycleBreakdown:
        """Attribute cycles to penalty categories for one section."""
        n = len(events)
        lat = self.config.latency
        ov = self.overlap
        breakdown = CycleBreakdown()

        # --- base issue cost from the instruction mix -----------------
        f_load = np.count_nonzero(events.is_load) / n
        f_store = np.count_nonzero(events.is_store) / n
        f_branch = np.count_nonzero(events.is_branch) / n
        base_cpi = (
            1.0 / self.config.issue_width
            + self.issue_costs.load_extra * f_load
            + self.issue_costs.store_extra * f_store
            + self.issue_costs.branch_extra * f_branch
        )
        breakdown.base = base_cpi * n

        # --- memory-level parallelism around long misses ---------------
        long_miss = (
            events.l2m.astype(np.float64)
            + events.store_l2m.astype(np.float64)
            + events.l2im.astype(np.float64)
        )
        local_misses = self.window_sums(long_miss, min(self.config.rob_size, n))
        raw_mlp = np.clip(local_misses, 1.0, float(self.config.mshr_count))
        serial = events.dependent_miss_fraction
        mlp = 1.0 + (raw_mlp - 1.0) * (1.0 - serial)
        in_shadow = local_misses > 0.0

        # --- long-latency data misses ----------------------------------
        breakdown.load_l2_miss = float(
            np.sum(events.l2m / mlp) * lat.memory
        )
        breakdown.store_l2_miss = float(
            np.sum(events.store_l2m / mlp) * lat.memory * ov.store_miss_exposure
        )

        # --- short execution-side penalties ----------------------------
        ooo_factor = 1.0 - ov.ilp_hide_ooo * events.ilp
        shadow_scale = np.where(in_shadow, ov.shadow_discount, 1.0)

        l1_only = events.l1dm & ~events.l2m
        l1_penalty = lat.l2_hit - lat.l1_hit
        breakdown.load_l1_miss = float(
            np.sum(l1_only * shadow_scale) * l1_penalty * ooo_factor
        )
        st_l1_only = events.store_l1m & ~events.store_l2m
        breakdown.store_l1_miss = float(
            np.sum(st_l1_only * shadow_scale)
            * l1_penalty
            * ooo_factor
            * ov.store_miss_exposure
        )

        walk_scale = np.where(in_shadow, ov.walk_shadow_discount, 1.0)
        dtlb_cycles = (
            np.sum(events.dtlb0_ld * shadow_scale) * lat.dtlb0_miss * ooo_factor
            + np.sum(events.dtlb_walk_ld * walk_scale) * lat.dtlb_walk
            + np.sum(events.dtlb_walk_st * walk_scale) * lat.dtlb_walk
            * ov.store_miss_exposure
        )
        breakdown.dtlb = float(dtlb_cycles)

        block_cycles = (
            np.sum(events.ldbl_sta * shadow_scale) * lat.load_block_sta
            + np.sum(events.ldbl_std * shadow_scale) * lat.load_block_std
            + np.sum(events.ldbl_ov * shadow_scale) * lat.load_block_overlap
        )
        breakdown.load_block = float(block_cycles * ooo_factor)

        align_cycles = (
            np.sum(events.misal * shadow_scale) * lat.misaligned
            + np.sum(events.split_ld * shadow_scale) * lat.split_access
            + np.sum(events.split_st * shadow_scale)
            * lat.split_access
            * ov.store_miss_exposure
        )
        breakdown.alignment = float(align_cycles * ooo_factor)

        # --- branch mispredictions --------------------------------------
        mispredict_scale = np.where(in_shadow, ov.mispredict_shadow_discount, 1.0)
        breakdown.branch = float(
            np.sum(events.mispred * mispredict_scale) * lat.branch_mispredict
        )

        # --- front-end penalties ----------------------------------------
        fe_factor = 1.0 - ov.ilp_hide_frontend * events.ilp
        l1i_only = events.l1im & ~events.l2im
        fetch_memory_cycles = np.count_nonzero(events.l2im) * lat.ifetch_memory
        breakdown.ifetch = float(
            np.sum(l1i_only * shadow_scale) * lat.l1i_refill * fe_factor
            # An instruction fetch that misses L2 starves the front end
            # for a full memory access; nothing downstream can hide it.
            + fetch_memory_cycles
        )

        # Front-end starvation and data memory stalls overlap: while the
        # fetch unit waits on memory, outstanding data misses resolve
        # underneath (and vice versa), so the smaller of the two is
        # mostly hidden.  This is the saturation that turns fetch-bound
        # phases into the paper's constant-CPI class (LM18).
        data_memory_cycles = breakdown.load_l2_miss + breakdown.store_l2_miss
        if fetch_memory_cycles > 0 and data_memory_cycles > 0:
            hidden = ov.frontend_data_overlap * min(
                fetch_memory_cycles, data_memory_cycles
            )
            scale = 1.0 - hidden / (fetch_memory_cycles + data_memory_cycles)
            breakdown.load_l2_miss *= scale
            breakdown.store_l2_miss *= scale
            breakdown.ifetch -= hidden * (
                fetch_memory_cycles / (fetch_memory_cycles + data_memory_cycles)
            )
        breakdown.itlb = float(np.count_nonzero(events.itlbm) * lat.itlb_walk)
        breakdown.lcp = float(np.sum(events.lcp * shadow_scale) * lat.lcp_stall * fe_factor)

        return breakdown

    @staticmethod
    def window_sums(values: np.ndarray, width: int) -> np.ndarray:
        """Sum of ``values`` over a ``width``-wide window around each position.

        The same window as ``np.convolve(values, np.ones(width), "same")``
        for ``width <= len(values)``: ``width // 2`` positions before and
        ``(width - 1) // 2`` after, cut at the ends.  It is taken as a
        difference of cumulative sums, which is exact because the values
        are small integers (0 to 3 misses per instruction).
        """
        n = values.shape[0]
        totals = np.concatenate(([0.0], np.cumsum(values)))
        positions = np.arange(n)
        start = np.maximum(positions - width // 2, 0)
        stop = np.minimum(positions + (width + 1) // 2, n)
        return totals[stop] - totals[start]

    def cycles(self, events: SectionEvents) -> float:
        """Total cycles for the section."""
        return self.account(events).total

    def cpi(self, events: SectionEvents) -> float:
        """Cycles per instruction for the section."""
        return self.cycles(events) / len(events)
