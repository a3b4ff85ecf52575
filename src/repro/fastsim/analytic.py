"""Vectorized closed-form layer of the fast suite engine.

:mod:`repro.simulator.analytic` gives scalar expectations for the data
side of one phase (cache and DTLB miss rates, branch mispredicts).  This
module extends those forms into *full per-component cycle accounting* —
the front end, the store side, memory-dependence blocks, alignment and
LCP channels — and vectorizes everything over all sections of a sweep at
once: one :class:`ParamMatrix` holds every section's (possibly jittered)
:class:`~repro.workloads.phases.PhaseParams` as column arrays, and the
expectation of every Table I counter rate plus the expected CPI of the
cycle-accounting pipeline (:class:`repro.simulator.pipeline.
CycleAccounting`) come out as numpy arrays with no per-section Python
work.

The CPI form mirrors ``CycleAccounting.account`` term by term, replacing
each per-instruction event flag with its expected rate and each
data-dependent discount (MLP, miss shadows, frontend/data overlap) with
its expectation under the phase's long-miss rate.  It is deliberately an
*expectation*, not a re-simulation: the jitter of actual event draws,
conflict misses and predictor training transients are exactly what the
learned residual model (:mod:`repro.fastsim.calibration`) absorbs.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro.counters.metrics import PREDICTOR_NAMES
from repro.simulator.analytic import STREAM_PREFETCH_COVERAGE, STREAM_STRIDE
from repro.simulator.config import MachineConfig
from repro.simulator.core import WRONG_PATH_DEPTH
from repro.simulator.pipeline import IssueCosts, OverlapModel
from repro.workloads.phases import PhaseParams

#: Instruction size the PC generator advances by (repro.workloads.stream).
_INSTRUCTION_BYTES = 4

#: Fraction of within-run sequential L1I line misses the next-line
#: front-end prefetch hides (a demand miss pre-fills the following line,
#: so alternate lines of a straight-line run hit).
_CODE_PREFETCH_COVERAGE = 0.5

#: The PhaseParams fields ParamMatrix materializes as column arrays.
PARAM_FIELDS: Tuple[str, ...] = (
    "load_fraction",
    "store_fraction",
    "branch_fraction",
    "data_footprint",
    "hot_fraction",
    "hot_set_bytes",
    "stride_fraction",
    "dependent_miss_fraction",
    "ilp",
    "code_footprint",
    "code_hot_fraction",
    "code_hot_bytes",
    "basic_block_length",
    "branch_bias",
    "hard_branch_fraction",
    "lcp_fraction",
    "misalign_fraction",
    "wide_access_fraction",
    "store_load_alias_fraction",
    "sta_fraction",
    "std_fraction",
    "overlap_alias_fraction",
)

#: Extra (non-Table-I) features the residual model sees on top of the 20
#: predictor rates: the analytic CPI plus every phase parameter (byte-
#: sized fields log2-scaled so tree splits see even spacing).  The raw
#: parameters let the tree isolate phases that project onto similar
#: rates but stall differently.
_PARAM_FEATURE_NAMES: Tuple[str, ...] = tuple(
    ("Log" + name) if ("footprint" in name or "bytes" in name) else name
    for name in PARAM_FIELDS
)
EXTRA_FEATURE_NAMES: Tuple[str, ...] = ("AnalyticCPI",) + _PARAM_FEATURE_NAMES

#: Full residual-model feature set, in column order.
RESIDUAL_FEATURE_NAMES: Tuple[str, ...] = PREDICTOR_NAMES + EXTRA_FEATURE_NAMES


class ParamMatrix:
    """All sections' phase parameters as per-field numpy columns."""

    def __init__(self, params: Sequence[PhaseParams]) -> None:
        if not params:
            from repro.errors import ConfigError

            raise ConfigError("ParamMatrix needs at least one section")
        self.n = len(params)
        for name in PARAM_FIELDS:
            setattr(
                self,
                name,
                np.array([getattr(p, name) for p in params], dtype=np.float64),
            )


def _uniform_hit(capacity_bytes: float, region: np.ndarray) -> np.ndarray:
    """Vectorized :func:`repro.simulator.analytic.uniform_hit_probability`."""
    with np.errstate(divide="ignore"):
        ratio = np.where(region > 0, capacity_bytes / np.maximum(region, 1.0), 1.0)
    return np.minimum(1.0, ratio)


def _capacity_miss(capacity_bytes: float, resident_set: np.ndarray) -> np.ndarray:
    """Miss probability of a hot set against one level (0 when it fits)."""
    return np.where(
        resident_set <= capacity_bytes,
        0.0,
        1.0 - _uniform_hit(capacity_bytes, resident_set),
    )


def data_miss_rates(
    pm: ParamMatrix, config: MachineConfig
) -> Dict[str, np.ndarray]:
    """Vectorized per-access data-side miss probabilities.

    Mirrors :func:`repro.simulator.analytic.expected_data_miss_rates`
    (``l1d``/``l2``) and extends it with the two DTLB levels (``dtlb0``
    per-access level-0 misses, ``walk`` per-access page walks).
    """
    line = config.l1d.line_bytes
    hot = pm.hot_fraction
    cold = 1.0 - hot
    streaming = cold * pm.stride_fraction
    jumping = cold * (1.0 - pm.stride_fraction)

    hot_l1 = _capacity_miss(config.l1d.size_bytes, pm.hot_set_bytes)
    hot_l2 = _capacity_miss(config.l2.size_bytes, pm.hot_set_bytes)

    accesses_per_line = max(line // STREAM_STRIDE, 1)
    stream_miss = (1.0 / accesses_per_line) * (
        1.0 - (STREAM_PREFETCH_COVERAGE if config.prefetch_next_line else 0.0)
    )

    jump_l1 = 1.0 - _uniform_hit(config.l1d.size_bytes, pm.data_footprint)
    jump_l2 = 1.0 - _uniform_hit(config.l2.size_bytes, pm.data_footprint)

    l1d = hot * hot_l1 + streaming * stream_miss + jumping * jump_l1
    l2 = (
        hot * hot_l2
        + streaming * stream_miss
        + jumping * jump_l1 * jump_l2 / np.maximum(jump_l1, 1e-12)
    )
    l2 = np.minimum(l2, l1d)

    # DTLB levels: reach plays the role capacity does for the caches.
    page = config.dtlb.page_bytes
    reach1 = config.dtlb.entries * page
    reach0 = config.dtlb0.entries * config.dtlb0.page_bytes
    accesses_per_page = max(page // STREAM_STRIDE, 1)
    footprint_walk = 1.0 - _uniform_hit(reach1, pm.data_footprint)
    walk = (
        hot * _capacity_miss(reach1, pm.hot_set_bytes)
        + streaming * (1.0 / accesses_per_page) * footprint_walk
        + jumping * footprint_walk
    )
    footprint_l0 = 1.0 - _uniform_hit(reach0, pm.data_footprint)
    dtlb0 = (
        hot * _capacity_miss(reach0, pm.hot_set_bytes)
        + streaming * (1.0 / accesses_per_page) * footprint_l0
        + jumping * footprint_l0
    )
    # A full walk implies a level-0 miss (reach0 < reach1 architecturally).
    dtlb0 = np.maximum(dtlb0, walk)
    return {"l1d": l1d, "l2": l2, "dtlb0": dtlb0, "walk": walk}


def code_miss_rates(
    pm: ParamMatrix, config: MachineConfig
) -> Dict[str, np.ndarray]:
    """Vectorized per-instruction front-end miss rates.

    The PC generator (:func:`repro.workloads.stream._draw_pcs`) emits
    sequential runs of ``basic_block_length`` instructions, each starting
    at a random 16-byte slot of the hot code region (probability
    ``code_hot_fraction``) or the whole code footprint.  Per instruction
    that means a fresh cache line every run start plus one line crossing
    every ``line_bytes / 4`` instructions, and a fresh page at run starts
    plus one crossing every ``page_bytes / 4`` instructions.
    """
    line = config.l1i.line_bytes
    run = np.maximum(pm.basic_block_length, 1.0)
    p_start = 1.0 / run
    p_cross = _INSTRUCTION_BYTES / line

    hot_l1 = _capacity_miss(config.l1i.size_bytes, pm.code_hot_bytes)
    cold_l1 = 1.0 - _uniform_hit(config.l1i.size_bytes, pm.code_footprint)
    line_l1 = pm.code_hot_fraction * hot_l1 + (1.0 - pm.code_hot_fraction) * cold_l1

    hot_l2 = _capacity_miss(config.l2.size_bytes, pm.code_hot_bytes)
    cold_l2 = 1.0 - _uniform_hit(config.l2.size_bytes, pm.code_footprint)
    line_l2 = pm.code_hot_fraction * hot_l2 + (1.0 - pm.code_hot_fraction) * cold_l2

    cross_cover = (
        1.0 - _CODE_PREFETCH_COVERAGE if config.prefetch_next_line else 1.0
    )
    new_line = p_start + (1.0 - p_start) * p_cross * cross_cover
    l1im = new_line * line_l1
    l2im = np.minimum(new_line * line_l1 * line_l2, l1im)

    reach = config.itlb.entries * config.itlb.page_bytes
    page_cross = _INSTRUCTION_BYTES / config.itlb.page_bytes
    hot_page = _capacity_miss(reach, pm.code_hot_bytes)
    cold_page = 1.0 - _uniform_hit(reach, pm.code_footprint)
    page_miss = (
        pm.code_hot_fraction * hot_page + (1.0 - pm.code_hot_fraction) * cold_page
    )
    itlbm = (p_start + (1.0 - p_start) * page_cross) * page_miss
    return {"l1im": l1im, "l2im": l2im, "itlbm": itlbm}


def branch_mispredict_rate(pm: ParamMatrix) -> np.ndarray:
    """Vectorized :func:`~repro.simulator.analytic.expected_branch_mispredict_rate`."""
    biased = np.minimum(pm.branch_bias, 1.0 - pm.branch_bias)
    return pm.hard_branch_fraction * 0.5 + (1.0 - pm.hard_branch_fraction) * biased


def _split_probability(pm: ParamMatrix, line_bytes: int) -> np.ndarray:
    """Probability a memory access crosses a cache line.

    Aligned accesses never split (size-aligned bases divide the line);
    splits come from the deliberately misaligned fraction, whose crossing
    probability grows with access width (expected offset 2 over sizes
    4/8 at 50/50 and 16-byte wide accesses).
    """
    wide = pm.wide_access_fraction
    expected_size = wide * 16.0 + (1.0 - wide) * 6.0
    return pm.misalign_fraction * np.minimum(1.0, (expected_size + 1.0) / line_bytes)


def expected_rate_matrix(
    pm: ParamMatrix,
    config: Optional[MachineConfig] = None,
) -> Dict[str, np.ndarray]:
    """Every Table I predictor rate for every section, plus internals.

    Returns a dict keyed by predictor name (``PREDICTOR_NAMES``) with
    per-instruction expected rates, plus the internal channels the CPI
    form needs that Table I does not expose (``StoreL1M``, ``StoreL2M``,
    ``L2IM``, ``SplitProb``).
    """
    machine = config or MachineConfig()
    data = data_miss_rates(pm, machine)
    code = code_miss_rates(pm, machine)
    mispredict = branch_mispredict_rate(pm)

    ld = pm.load_fraction
    st = pm.store_fraction
    br = pm.branch_fraction

    br_mis = br * mispredict
    walk_ld = ld * data["walk"]
    spec_walks = br_mis * WRONG_PATH_DEPTH * ld * data["walk"]
    walk_st = st * data["walk"]

    alias = pm.store_load_alias_fraction
    overlap = pm.overlap_alias_fraction
    plain_alias = alias * (1.0 - overlap)
    split = _split_probability(pm, machine.l1d.line_bytes)

    rates: Dict[str, np.ndarray] = {
        "InstLd": ld,
        "InstSt": st,
        "BrMisPr": br_mis,
        "BrPred": br * (1.0 - mispredict),
        "InstOther": np.maximum(1.0 - ld - st - br, 0.0),
        "L1DM": ld * data["l1d"],
        "L1IM": code["l1im"],
        "L2M": ld * data["l2"],
        "DtlbL0LdM": ld * data["dtlb0"],
        "DtlbLdM": walk_ld + spec_walks,
        "DtlbLdReM": walk_ld,
        "Dtlb": walk_ld + walk_st + spec_walks,
        "ItlbM": code["itlbm"],
        "LdBlSta": ld * plain_alias * pm.sta_fraction,
        "LdBlStd": ld * plain_alias * (1.0 - pm.sta_fraction) * pm.std_fraction,
        "LdBlOvSt": ld * alias * overlap,
        "MisalRef": (ld + st) * pm.misalign_fraction,
        "L1DSpLd": ld * split,
        "L1DSpSt": st * split,
        "LCP": pm.lcp_fraction,
        # Internal channels (not Table I counters).
        "StoreL1M": st * data["l1d"],
        "StoreL2M": st * data["l2"],
        "L2IM": code["l2im"],
    }
    return rates


def expected_cpi(
    pm: ParamMatrix,
    rates: Dict[str, np.ndarray],
    config: Optional[MachineConfig] = None,
    overlap: OverlapModel = OverlapModel(),
    issue_costs: IssueCosts = IssueCosts(),
    instructions_per_section: int = 2048,
) -> np.ndarray:
    """Expected CPI of the cycle-accounting pipeline, per section.

    A term-by-term expectation of :meth:`repro.simulator.pipeline.
    CycleAccounting.account`: every event flag becomes its expected rate
    from ``rates``, the MLP divisor becomes its ROB-window expectation,
    and the in-shadow discounts become probability mixtures under the
    section's long-miss rate.
    """
    machine = config or MachineConfig()
    lat = machine.latency
    ov = overlap
    n = instructions_per_section

    ld, st, br = pm.load_fraction, pm.store_fraction, pm.branch_fraction
    base = (
        1.0 / machine.issue_width
        + issue_costs.load_extra * ld
        + issue_costs.store_extra * st
        + issue_costs.branch_extra * br
    )

    # Long-miss rate and its window statistics.
    long_rate = rates["L2M"] + rates["StoreL2M"] + rates["L2IM"]
    window = float(min(machine.rob_size, n))
    local = long_rate * window
    raw_mlp = np.clip(local, 1.0, float(machine.mshr_count))
    mlp = 1.0 + (raw_mlp - 1.0) * (1.0 - pm.dependent_miss_fraction)
    p_shadow = 1.0 - np.power(np.clip(1.0 - long_rate, 0.0, 1.0), window)
    shadow = p_shadow * ov.shadow_discount + (1.0 - p_shadow)
    walk_shadow = p_shadow * ov.walk_shadow_discount + (1.0 - p_shadow)
    mispred_shadow = p_shadow * ov.mispredict_shadow_discount + (1.0 - p_shadow)

    load_l2 = rates["L2M"] / mlp * lat.memory
    store_l2 = rates["StoreL2M"] / mlp * lat.memory * ov.store_miss_exposure

    ooo = 1.0 - ov.ilp_hide_ooo * pm.ilp
    fe = 1.0 - ov.ilp_hide_frontend * pm.ilp
    l1_penalty = lat.l2_hit - lat.l1_hit

    l1_only = np.maximum(rates["L1DM"] - rates["L2M"], 0.0)
    load_l1 = l1_only * shadow * l1_penalty * ooo
    st_l1_only = np.maximum(rates["StoreL1M"] - rates["StoreL2M"], 0.0)
    store_l1 = st_l1_only * shadow * l1_penalty * ooo * ov.store_miss_exposure

    dtlb = (
        rates["DtlbL0LdM"] * shadow * lat.dtlb0_miss * ooo
        + rates["DtlbLdReM"] * walk_shadow * lat.dtlb_walk
        + pm.store_fraction
        * (rates["Dtlb"] - rates["DtlbLdM"])
        / np.maximum(pm.store_fraction, 1e-12)
        * walk_shadow
        * lat.dtlb_walk
        * ov.store_miss_exposure
    )

    load_block = (
        rates["LdBlSta"] * lat.load_block_sta
        + rates["LdBlStd"] * lat.load_block_std
        + rates["LdBlOvSt"] * lat.load_block_overlap
    ) * shadow * ooo

    alignment = (
        rates["MisalRef"] * lat.misaligned
        + rates["L1DSpLd"] * lat.split_access
        + rates["L1DSpSt"] * lat.split_access * ov.store_miss_exposure
    ) * shadow * ooo

    branch = rates["BrMisPr"] * mispred_shadow * lat.branch_mispredict

    l1i_only = np.maximum(rates["L1IM"] - rates["L2IM"], 0.0)
    fetch_memory = rates["L2IM"] * lat.ifetch_memory
    ifetch = l1i_only * shadow * lat.l1i_refill * fe + fetch_memory

    # Frontend/data memory-stall overlap (the LM18 saturation): the
    # smaller of the two expected stall streams mostly hides under the
    # larger.
    data_memory = load_l2 + store_l2
    both = (fetch_memory > 0) & (data_memory > 0)
    total_memory = np.maximum(fetch_memory + data_memory, 1e-12)
    hidden = np.where(
        both,
        ov.frontend_data_overlap * np.minimum(fetch_memory, data_memory),
        0.0,
    )
    scale = 1.0 - hidden / total_memory
    load_l2 = load_l2 * scale
    store_l2 = store_l2 * scale
    ifetch = ifetch - hidden * (fetch_memory / total_memory)

    itlb = rates["ItlbM"] * lat.itlb_walk
    lcp = rates["LCP"] * shadow * lat.lcp_stall * fe

    return (
        base
        + load_l2
        + store_l2
        + load_l1
        + store_l1
        + dtlb
        + load_block
        + alignment
        + branch
        + ifetch
        + itlb
        + lcp
    )


def predictor_matrix(rates: Dict[str, np.ndarray]) -> np.ndarray:
    """The (n_sections, 20) Table I predictor matrix, column order fixed."""
    return np.column_stack([rates[name] for name in PREDICTOR_NAMES])


def residual_features(
    pm: ParamMatrix,
    rates: Dict[str, np.ndarray],
    analytic_cpi: np.ndarray,
) -> np.ndarray:
    """Feature matrix the residual model consumes (RESIDUAL_FEATURE_NAMES)."""
    param_columns = []
    for field in PARAM_FIELDS:
        values = getattr(pm, field)
        if "footprint" in field or "bytes" in field:
            values = np.log2(np.maximum(values, 1.0))
        param_columns.append(values)
    return np.column_stack(
        [rates[name] for name in PREDICTOR_NAMES]
        + [analytic_cpi]
        + param_columns
    )


def analytic_sections(
    params: Sequence[PhaseParams],
    config: Optional[MachineConfig] = None,
    instructions_per_section: int = 2048,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """One-call analytic pass: (predictor matrix, analytic CPI, features)."""
    pm = ParamMatrix(params)
    rates = expected_rate_matrix(pm, config)
    cpi = expected_cpi(
        pm, rates, config, instructions_per_section=instructions_per_section
    )
    return predictor_matrix(rates), cpi, residual_features(pm, rates, cpi)
