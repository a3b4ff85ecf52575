"""The production trace replay against the per-instruction oracle.

:meth:`SimulatedCore.run_block` replays independent structures in
separate passes and skips fetches that provably hit; the oracle in
:mod:`repro.conformance.oracle` visits every structure for every
instruction in program order.  Everything the replay produces — event
flags, counts, cycles, the cycle breakdown, component statistics and the
store buffer carried into the next block — must match bit for bit.

The collection steps around the replay have oracles too: prewarm with
one ``fill`` per line, the per-field jitter draw and the ``np.convolve``
ROB window.  The differential runs them on the oracle side, and the
tests at the end hold each production step to its oracle directly.
"""

from dataclasses import fields

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.conformance.oracle import (
    ReferenceCycleAccounting,
    ReferenceStoreBuffer,
    reference_core,
    reference_perturbed,
    reference_prewarm,
    reference_run_block,
)
from repro.counters import events as ev
from repro.simulator import (
    KIND_LOAD,
    KIND_OTHER,
    KIND_STORE,
    CacheConfig,
    InstructionBlock,
    MachineConfig,
    SectionEvents,
    SetAssociativeCache,
    SimulatedCore,
    StoreBuffer,
)
from repro.simulator.config import KIB
from repro.simulator.isa import CODE_REGION_BASE
from repro.simulator.memdep import GRANULE_SHIFT, NO_BLOCK
from repro.simulator.pipeline import CycleAccounting
from repro.workloads import PhaseParams
from repro.workloads.phases import perturbed, perturbed_batch
from repro.workloads.spec import spec_like_suite
from repro.workloads.stream import synthesize_block
from repro.workloads.suite import prewarm

MACHINES = {
    "core2duo": MachineConfig(),
    "tiny": MachineConfig.tiny(),
    "no-prefetch": MachineConfig(prefetch_next_line=False),
    # A single set: the next-line fetch prefetch lands in the demand
    # line's own set, so a same-line fetch can reorder LRU state.
    "one-set-l1i": MachineConfig(l1i=CacheConfig(2 * KIB, 32)),
    "32B-l1i-lines": MachineConfig(l1i=CacheConfig(32 * KIB, 8, line_bytes=32)),
}

#: Consecutive block lengths per profile.  The short ones are below every
#: store-buffer window above, so stores carry across several blocks.
BLOCK_LENGTHS = (700, 7, 3, 20, 500, 5, 300)

#: Blocks before which the hierarchy is prewarmed.
PREWARM_BEFORE = (0, 4)


def store_state(buffer):
    """Post-expiry state of either store buffer: clock and granule map."""
    if isinstance(buffer, ReferenceStoreBuffer):
        buffer._expire()
        return buffer._seq, dict(buffer._granules)
    stores = buffer._stores
    granules = {}
    # Oldest first, so newer stores shadow older ones.
    for record in stores[stores[:, 0] >= buffer._seq - buffer.window].tolist():
        first = record[1] >> GRANULE_SHIFT
        last = (record[1] + max(record[2], 1) - 1) >> GRANULE_SHIFT
        for granule in range(first, last + 1):
            granules[granule] = tuple(record)
    return buffer._seq, granules


def assert_same_result(result, expected, context=""):
    for field in fields(SectionEvents):
        np.testing.assert_array_equal(
            getattr(result.events, field.name),
            getattr(expected.events, field.name),
            err_msg=f"{context}: {field.name}",
        )
    assert result.counts == expected.counts, context
    assert result.cycles == expected.cycles, context
    assert result.breakdown == expected.breakdown, context


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_replay_matches_oracle_on_every_profile(machine):
    config = MACHINES[machine]
    for seed, profile in enumerate(spec_like_suite()):
        core = SimulatedCore(config, rng=seed)
        oracle = reference_core(config, rng=seed)
        rng = np.random.default_rng(seed)
        oracle_rng = np.random.default_rng(seed)
        for index, length in enumerate(BLOCK_LENGTHS):
            params = profile.section_params(index, len(BLOCK_LENGTHS))
            if index in PREWARM_BEFORE:
                prewarm(core, params)
                reference_prewarm(oracle, params)
            block = synthesize_block(perturbed(params, rng, 0.08), length, rng)
            oracle_block = synthesize_block(
                reference_perturbed(params, oracle_rng, 0.08), length, oracle_rng
            )
            result = core.run_block(block)
            expected = reference_run_block(oracle, oracle_block)
            context = f"{profile.name} block {index}"
            for name in ("kind", "pc", "addr", "size", "taken", "lcp", "sta", "std"):
                np.testing.assert_array_equal(
                    getattr(block, name), getattr(oracle_block, name), err_msg=context
                )
            assert_same_result(result, expected, context)
            assert core.statistics() == oracle.statistics(), context
            assert store_state(core.store_buffer) == store_state(
                oracle.store_buffer
            ), context
            assert (
                core.store_buffer.occupancy == oracle.store_buffer.occupancy
            ), context


# Aliasing-heavy traffic: every access lands in 13 granules.
_operation = st.tuples(
    st.sampled_from([KIND_LOAD, KIND_STORE, KIND_OTHER]),
    st.integers(0, 96),
    st.sampled_from([1, 2, 4, 8, 16]),
    st.booleans(),
    st.booleans(),
)


def _block(operations):
    kind, addr, size, sta, std = (np.array(column) for column in zip(*operations))
    memory = kind != KIND_OTHER
    return InstructionBlock(
        kind=kind,
        pc=np.zeros(len(kind), dtype=np.int64),
        addr=np.where(memory, addr, 0),
        size=np.where(memory, size, 0),
        taken=np.zeros(len(kind), dtype=bool),
        lcp=np.zeros(len(kind), dtype=bool),
        sta=sta & (kind == KIND_STORE),
        std=std & (kind == KIND_STORE),
    )


def _scalar(buffer, operations):
    """Drive ``buffer`` one instruction at a time; return outcome codes."""
    codes = []
    for kind, addr, size, sta, std in operations:
        if kind == KIND_LOAD:
            codes.append(buffer.check_load(addr, size))
            continue
        if kind == KIND_STORE:
            buffer.push_store(addr, size, sta, std)
        else:
            buffer.advance(1)
        codes.append(NO_BLOCK)
    return codes


@settings(max_examples=150, deadline=None)
@given(
    st.integers(1, 64),
    st.lists(
        st.tuples(st.booleans(), st.lists(_operation, min_size=1, max_size=90)),
        min_size=1,
        max_size=5,
    ),
)
def test_block_classifier_equals_scalar_sequence(window, chunks):
    """classify() on a block == push/check/advance per instruction.

    One buffer alternates between the block path and its own scalar
    methods, chunk by chunk, so both must read and leave the same state;
    the expected codes and state come from the oracle's scalar buffer.
    """
    buffer = StoreBuffer(window)
    reference = ReferenceStoreBuffer(window)
    for as_block, operations in chunks:
        expected = _scalar(reference, operations)
        if as_block:
            codes = buffer.classify(_block(operations)).tolist()
        else:
            codes = _scalar(buffer, operations)
        assert codes == expected
        assert store_state(buffer) == store_state(reference)
        assert buffer.occupancy == reference.occupancy


def _after_flagged_store(core):
    """Replay a block ending in an STA-flagged store; return a load of it."""
    core.run_block(
        _block([(KIND_STORE, 0x40, 8, True, False), (KIND_OTHER, 0, 0, False, False)])
    )
    return _block([(KIND_LOAD, 0x40, 8, False, False)])


def test_store_buffer_carries_across_blocks():
    core = SimulatedCore(MachineConfig.tiny(), rng=0)
    load = _after_flagged_store(core)
    assert core.store_buffer.occupancy == 1
    assert core.run_block(load).counts[ev.LOAD_BLOCK_STA.name] == 1


def test_reset_clears_carried_stores():
    core = SimulatedCore(MachineConfig.tiny(), rng=0)
    load = _after_flagged_store(core)
    core.reset()
    assert core.store_buffer.occupancy == 0
    assert core.run_block(load).counts[ev.LOAD_BLOCK_STA.name] == 0
    assert core.store_buffer.classify(load).tolist() == [NO_BLOCK]


# --- the instruction side uses the L1I line size --------------------------

_SMALL_LINES = MachineConfig(l1i=CacheConfig(32 * KIB, 8, line_bytes=32))


def _sweep(lines, line_bytes):
    """Straight-line code over ``lines`` consecutive I-cache lines."""
    n = lines * line_bytes // 4
    return InstructionBlock(
        kind=np.full(n, KIND_OTHER, dtype=np.uint8),
        pc=CODE_REGION_BASE + 4 * np.arange(n, dtype=np.int64),
        addr=np.zeros(n, dtype=np.int64),
        size=np.zeros(n, dtype=np.int64),
        taken=np.zeros(n, dtype=bool),
        lcp=np.zeros(n, dtype=bool),
        sta=np.zeros(n, dtype=bool),
        std=np.zeros(n, dtype=bool),
    )


@pytest.mark.parametrize("replay", ["production", "oracle"])
def test_fetch_prefetch_steps_one_l1i_line(replay):
    """A cold 8-line sweep misses every other line: 0, 2, 4, 6."""
    block = _sweep(8, 32)
    if replay == "production":
        result = SimulatedCore(_SMALL_LINES, rng=0).run_block(block)
    else:
        result = reference_run_block(reference_core(_SMALL_LINES, rng=0), block)
    missed_lines = (block.pc[result.events.l1im] - CODE_REGION_BASE) // 32
    assert missed_lines.tolist() == [0, 2, 4, 6]


def test_prewarm_fills_every_l1i_line():
    core = SimulatedCore(_SMALL_LINES, rng=0)
    params = PhaseParams(code_hot_bytes=4 * KIB)
    prewarm(core, params)
    resident = [
        core.l1i.probe(CODE_REGION_BASE + offset)
        for offset in range(0, params.code_hot_bytes, 32)
    ]
    assert all(resident)


# --- collection steps against their oracles -----------------------------

STRUCTURES = ("l1i", "l1d", "l2", "dtlb.level0", "dtlb.level1", "itlb")


def lru_state(core):
    """Every cache and TLB set, keys in LRU order, plus hit/miss counts."""
    state = {}
    for name in STRUCTURES:
        structure = core
        for part in name.split("."):
            structure = getattr(structure, part)
        sets = [list(lines) for lines in structure._sets]
        state[name] = (sets, structure.hits, structure.misses)
    return state


@pytest.mark.parametrize("machine", sorted(MACHINES))
def test_prewarm_matches_reference(machine):
    """Bulk prewarm leaves every set and statistic as one fill per line.

    Each phase after the first is prewarmed from warm state: the blocks
    replayed under the previous phase leave hits, misses, prefetched
    lines and dirty LRU order behind.
    """
    config = MACHINES[machine]
    for seed, profile in enumerate(spec_like_suite()[::2]):
        core = SimulatedCore(config, rng=seed)
        oracle = SimulatedCore(config, rng=seed)
        rng = np.random.default_rng(seed)
        for phase, params in enumerate(profile.schedule.phases):
            prewarm(core, params)
            reference_prewarm(oracle, params)
            assert lru_state(core) == lru_state(oracle), f"{profile.name} {phase}"
            for length in (400, 90):
                block = synthesize_block(params, length, rng)
                core.run_block(block)
                oracle.run_block(block)


#: (associativity, sets) of the caches the bulk-fill property runs on.
_GEOMETRIES = [(1, 1), (4, 1), (1, 4), (2, 2), (2, 8)]


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(_GEOMETRIES),
    st.lists(
        st.tuples(
            st.lists(st.integers(0, 40 * 64), max_size=3),
            st.lists(st.integers(0, 40 * 64), max_size=30),
        ),
        min_size=1,
        max_size=4,
    ),
)
def test_fill_many_equals_scalar_fills(geometry, runs):
    """``fill_many`` == ``fill`` per address, repeats and old lines included.

    Demand accesses between the runs leave lines and counts that the
    next run must keep, reorder or evict exactly as scalar fills would.
    """
    assoc, n_sets = geometry
    config = CacheConfig(64 * assoc * n_sets, assoc)
    bulk = SetAssociativeCache(config)
    scalar = SetAssociativeCache(config)
    for accesses, fills in runs:
        for addr in accesses:
            assert bulk.access(addr) == scalar.access(addr)
        bulk.fill_many(np.array(fills, dtype=np.int64))
        for addr in fills:
            scalar.fill(addr)
        assert [list(s) for s in bulk._sets] == [list(s) for s in scalar._sets]
        assert (bulk.hits, bulk.misses) == (scalar.hits, scalar.misses)


@pytest.mark.parametrize("scale", [0.0, 0.02, 0.08, 0.3, 1.5])
def test_perturbed_matches_reference_draw_for_draw(scale):
    """Same params and the same generator state after every draw."""
    phases = [params for profile in spec_like_suite() for params in profile.schedule.phases]
    # A full instruction mix, so jitter pushes it over 1 and renormalizes.
    phases.append(PhaseParams(load_fraction=0.5, store_fraction=0.3, branch_fraction=0.2))
    for seed, params in enumerate(phases):
        rng = np.random.default_rng(seed)
        oracle_rng = np.random.default_rng(seed)
        for draw in range(3):
            expected = reference_perturbed(params, oracle_rng, scale)
            assert perturbed(params, rng, scale) == expected, (seed, draw)
            assert rng.bit_generator.state == oracle_rng.bit_generator.state
        # A batch is the same draws in a row.
        expected = [reference_perturbed(params, oracle_rng, scale) for _ in range(4)]
        assert perturbed_batch(params, rng, scale, 4) == expected, seed
        assert rng.bit_generator.state == oracle_rng.bit_generator.state


@pytest.mark.parametrize("rob_size", [1, 2, 31, 32, 96])
def test_window_sums_equal_convolve(rob_size):
    """The cumulative-sum ROB window equals np.convolve below and above it."""
    rng = np.random.default_rng(rob_size)
    lengths = {1, 2, max(rob_size - 1, 1), rob_size, rob_size + 1, 3 * rob_size + 7, 2048}
    for n in sorted(lengths):
        for density in (0.02, 0.5):
            counts = rng.integers(1, 4, n) * (rng.random(n) < density)
            values = counts.astype(np.float64)
            width = min(rob_size, n)
            np.testing.assert_array_equal(
                CycleAccounting.window_sums(values, width),
                ReferenceCycleAccounting.window_sums(values, width),
                err_msg=f"n={n} width={width}",
            )
