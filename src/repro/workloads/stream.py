"""Instruction-stream synthesis: PhaseParams -> InstructionBlock.

All generation is vectorized numpy.  Synthesis is still about 17 % of a
quick-preset trace suite run's time, because the replay it feeds visits
only the instructions whose state is sequential, with its LRU updates
inline.  The generator controls every Table I event channel:

* data addresses (hot set / cold footprint / streaming) drive the cache
  and DTLB models;
* program-counter runs over a code footprint drive L1I and ITLB;
* per-branch bias drives the direction predictor;
* aliasing loads against flagged stores drive the LOAD_BLOCK events;
* alignment offsets and wide accesses drive MISALIGN/L1D_SPLIT;
* LCP flags drive ILD_STALL.
"""

from __future__ import annotations

import numpy as np

from repro._util import RandomState, check_random_state
from repro.errors import ConfigError
from repro.simulator.isa import (
    CODE_REGION_BASE,
    InstructionBlock,
    KIND_BRANCH,
    KIND_LOAD,
    KIND_OTHER,
    KIND_STORE,
)
from repro.workloads.phases import PhaseParams

#: Stride of streaming (sequential) cold accesses, in bytes.
_STREAM_STRIDE = 16


def synthesize_block(
    params: PhaseParams,
    n_instructions: int,
    rng: RandomState = None,
) -> InstructionBlock:
    """Generate one instruction block realizing ``params``."""
    if n_instructions < 1:
        raise ConfigError("n_instructions must be at least 1")
    generator = check_random_state(rng)
    n = int(n_instructions)

    kind = _draw_kinds(params, n, generator)
    is_load = kind == KIND_LOAD
    is_store = kind == KIND_STORE
    is_memory = is_load | is_store

    size = np.zeros(n, dtype=np.int64)
    n_memory = int(np.count_nonzero(is_memory))
    if n_memory:
        wide = generator.random(n_memory) < params.wide_access_fraction
        base_sizes = np.where(generator.random(n_memory) < 0.5, 4, 8)
        size[is_memory] = np.where(wide, 16, base_sizes)

    addr = np.zeros(n, dtype=np.int64)
    if n_memory:
        addr[is_memory] = _draw_addresses(params, n_memory, size[is_memory], generator)
    _apply_store_load_aliasing(params, kind, addr, size, generator)

    pc = _draw_pcs(params, n, generator)
    taken = np.zeros(n, dtype=bool)
    n_branches = int(np.count_nonzero(kind == KIND_BRANCH))
    if n_branches:
        hard = generator.random(n_branches) < params.hard_branch_fraction
        bias = np.where(hard, 0.5, params.branch_bias)
        taken[kind == KIND_BRANCH] = generator.random(n_branches) < bias

    lcp = generator.random(n) < params.lcp_fraction
    sta = np.zeros(n, dtype=bool)
    std = np.zeros(n, dtype=bool)
    n_stores = int(np.count_nonzero(is_store))
    if n_stores:
        sta[is_store] = generator.random(n_stores) < params.sta_fraction
        std[is_store] = generator.random(n_stores) < params.std_fraction

    return InstructionBlock(
        kind=kind,
        pc=pc,
        addr=addr,
        size=size,
        taken=taken,
        lcp=lcp,
        sta=sta,
        std=std,
        ilp=params.ilp,
        dependent_miss_fraction=params.dependent_miss_fraction,
    )


def _draw_kinds(params: PhaseParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Sample instruction kinds from the phase's mix."""
    other = 1.0 - params.load_fraction - params.store_fraction - params.branch_fraction
    probabilities = np.array(
        [params.load_fraction, params.store_fraction, params.branch_fraction, max(other, 0.0)]
    )
    probabilities /= probabilities.sum()
    return rng.choice(
        np.array([KIND_LOAD, KIND_STORE, KIND_BRANCH, KIND_OTHER], dtype=np.uint8),
        size=n,
        p=probabilities,
    ).astype(np.uint8)


def _draw_addresses(
    params: PhaseParams,
    n_memory: int,
    sizes: np.ndarray,
    rng: np.random.Generator,
) -> np.ndarray:
    """Data addresses: hot-set hits, streaming runs, or cold jumps."""
    hot = rng.random(n_memory) < params.hot_fraction
    addresses = np.empty(n_memory, dtype=np.int64)

    n_hot = int(np.count_nonzero(hot))
    if n_hot:
        addresses[hot] = rng.integers(0, max(params.hot_set_bytes // 8, 1), n_hot) * 8

    cold = ~hot
    n_cold = int(np.count_nonzero(cold))
    if n_cold:
        streaming = rng.random(n_cold) < params.stride_fraction
        cold_addr = np.empty(n_cold, dtype=np.int64)
        n_stream = int(np.count_nonzero(streaming))
        if n_stream:
            # One sequential run through the footprint from a random start.
            start = int(rng.integers(0, max(params.data_footprint // 8, 1))) * 8
            offsets = np.arange(n_stream, dtype=np.int64) * _STREAM_STRIDE
            cold_addr[streaming] = (start + offsets) % params.data_footprint
        n_jump = n_cold - n_stream
        if n_jump:
            cold_addr[~streaming] = (
                rng.integers(0, max(params.data_footprint // 8, 1), n_jump) * 8
            )
        addresses[cold] = cold_addr

    # Natural alignment, then deliberate misalignment of a small fraction.
    safe_sizes = np.maximum(sizes, 1)
    addresses -= addresses % safe_sizes
    misaligned = rng.random(n_memory) < params.misalign_fraction
    n_mis = int(np.count_nonzero(misaligned))
    if n_mis:
        addresses[misaligned] += rng.integers(1, 4, n_mis)
    return addresses


def _apply_store_load_aliasing(
    params: PhaseParams,
    kind: np.ndarray,
    addr: np.ndarray,
    size: np.ndarray,
    rng: np.random.Generator,
) -> None:
    """Point a fraction of loads at recently stored addresses (in place).

    Aliasing loads normally copy a preceding store's address and size
    (forwarding, blocked only when the store is flagged late); a
    configurable slice instead overlaps the store partially, which the
    store buffer classifies as LOAD_BLOCK.OVERLAP_STORE.
    """
    store_positions = np.flatnonzero(kind == KIND_STORE)
    load_positions = np.flatnonzero(kind == KIND_LOAD)
    if store_positions.size == 0 or load_positions.size == 0:
        return
    chosen = load_positions[
        rng.random(load_positions.size) < params.store_load_alias_fraction
    ]
    if chosen.size == 0:
        return
    # Latest store strictly before each chosen load.
    predecessor = np.searchsorted(store_positions, chosen) - 1
    valid = predecessor >= 0
    chosen = chosen[valid]
    predecessor = predecessor[valid]
    if chosen.size == 0:
        return
    sources = store_positions[predecessor]
    addr[chosen] = addr[sources]
    size[chosen] = size[sources]
    overlap = rng.random(chosen.size) < params.overlap_alias_fraction
    if np.any(overlap):
        # Shift past the store's start and widen beyond its end so the
        # store cannot cover the load.
        targets = chosen[overlap]
        addr[targets] = addr[targets] + 2
        size[targets] = np.maximum(size[targets], 8)


def _draw_pcs(params: PhaseParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """Program counters: sequential runs, mostly from the hot code region.

    Real programs spend most fetches in inner loops (the hot region at
    the base of the code footprint) and only occasionally jump to cold
    paths; without that reuse every run start would be an L1I miss.
    """
    run_length = max(int(params.basic_block_length), 1)
    n_runs = (n + run_length - 1) // run_length
    hot_slots = max(params.code_hot_bytes // 16, 1)
    cold_slots = max(params.code_footprint // 16, 1)
    hot_run = rng.random(n_runs) < params.code_hot_fraction
    starts = np.where(
        hot_run,
        rng.integers(0, hot_slots, n_runs),
        rng.integers(0, cold_slots, n_runs),
    ) * 16
    run_ids = np.arange(n) // run_length
    within = np.arange(n) - run_ids * run_length
    pcs = starts[run_ids] + within * 4
    return (pcs % params.code_footprint) + CODE_REGION_BASE
