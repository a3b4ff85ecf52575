"""Trace-replay benchmarks: the production replay vs the oracle loop.

``SimulatedCore.run_block`` replays the structures that share state in
one program-order loop and everything else in passes of its own;
``reference_run_block`` is the per-instruction loop it replaced.  Both
are timed on the same suite blocks, from cores each side prewarms to the
same state (``prewarm`` and ``reference_prewarm``).  The gate asserts
the two replays agree bit for bit and that the production replay is at
least 2x faster — a ratio, so it holds on any runner.
"""

import time

import numpy as np
import pytest

from repro.conformance.oracle import (
    reference_core,
    reference_prewarm,
    reference_run_block,
)
from repro.simulator import MachineConfig, SimulatedCore
from repro.workloads.phases import perturbed
from repro.workloads.spec import spec_like_suite
from repro.workloads.stream import synthesize_block
from repro.workloads.suite import prewarm

#: Leading sections of each profile that are replayed.
SECTIONS = 8

#: Per side: core factory, replay, prewarm.
REPLAYS = {
    "production": (SimulatedCore, SimulatedCore.run_block, prewarm),
    "oracle": (reference_core, reference_run_block, reference_prewarm),
}


@pytest.fixture(scope="module")
def suite_blocks(config):
    """Per profile: its first ``SECTIONS`` suite blocks and their params."""
    profiles = spec_like_suite()
    seeds = np.random.SeedSequence(config.seed).spawn(len(profiles))
    runs = []
    for profile, seq in zip(profiles, seeds):
        rng = np.random.default_rng(seq)
        blocks = []
        for index in range(SECTIONS):
            params = profile.section_params(index, config.sections_per_workload)
            section = perturbed(params, rng, config.jitter)
            block = synthesize_block(section, config.instructions_per_section, rng)
            blocks.append((params, block))
        runs.append(blocks)
    return runs


def prewarmed_cores(replay, runs):
    """One core per profile, prewarmed for its first phase (untimed)."""
    make_core, _, warm = REPLAYS[replay]
    cores = []
    for seed, blocks in enumerate(runs):
        core = make_core(MachineConfig(), rng=seed)
        warm(core, blocks[0][0])
        cores.append(core)
    return cores


def replay_all(replay, cores, runs):
    _, run, _ = REPLAYS[replay]
    return [
        [run(core, block) for _, block in blocks]
        for core, blocks in zip(cores, runs)
    ]


@pytest.mark.parametrize("replay", sorted(REPLAYS))
def test_replay_suite_blocks(benchmark, replay, suite_blocks):
    def setup():
        return (replay, prewarmed_cores(replay, suite_blocks), suite_blocks), {}

    results = benchmark.pedantic(replay_all, setup=setup, rounds=3, iterations=1)
    assert len(results) == len(suite_blocks)


def test_replay_speedup(suite_blocks):
    """Bit-identical to the oracle, and at least 2x faster than it."""
    timings = {replay: [] for replay in REPLAYS}
    outputs = {}
    for _ in range(3):
        for replay in REPLAYS:
            cores = prewarmed_cores(replay, suite_blocks)
            start = time.perf_counter()
            outputs[replay] = replay_all(replay, cores, suite_blocks)
            timings[replay].append(time.perf_counter() - start)
    for fast_run, oracle_run in zip(outputs["production"], outputs["oracle"]):
        for fast, oracle in zip(fast_run, oracle_run):
            assert fast.counts == oracle.counts
            assert fast.cycles == oracle.cycles
            assert fast.breakdown == oracle.breakdown
            for name, flags in vars(fast.events).items():
                assert np.array_equal(flags, getattr(oracle.events, name)), name
    fast_s = min(timings["production"])
    oracle_s = min(timings["oracle"])
    speedup = oracle_s / fast_s
    instructions = sum(len(block) for blocks in suite_blocks for _, block in blocks)
    print(
        f"\nreplay of {instructions} instructions: production {fast_s:.3f}s, "
        f"oracle {oracle_s:.3f}s, x{speedup:.2f}"
    )
    assert speedup >= 2.0, f"replay speedup x{speedup:.2f} below the 2x bar"
