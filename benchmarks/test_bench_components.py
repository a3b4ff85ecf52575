"""Component throughput microbenchmarks.

Not paper artifacts — these track the performance of the substrate
itself (cache model, predictor, full core replay), so regressions in
simulation speed are visible.  Tree fit and predict are timed once, by
``test_micro_fit`` and ``test_micro_predict`` in ``test_bench_micro.py``.
"""

import numpy as np
import pytest

from repro.simulator import (
    CacheConfig,
    GsharePredictor,
    MachineConfig,
    SetAssociativeCache,
    SimulatedCore,
)
from repro.workloads import PhaseParams, synthesize_block


@pytest.fixture(scope="module")
def addresses():
    rng = np.random.default_rng(0)
    return [int(a) for a in rng.integers(0, 1 << 24, 20000)]


def test_cache_access_throughput(benchmark, addresses):
    cache = SetAssociativeCache(CacheConfig(32 * 1024, 8))

    def run():
        access = cache.access
        for addr in addresses:
            access(addr)

    benchmark(run)


def test_branch_predictor_throughput(benchmark):
    rng = np.random.default_rng(0)
    outcomes = [bool(b) for b in rng.random(20000) < 0.8]
    predictor = GsharePredictor(12)

    def run():
        access = predictor.access
        for taken in outcomes:
            access(0x400, taken)

    benchmark(run)


def test_core_replay_throughput(benchmark):
    block = synthesize_block(PhaseParams(), 4096, rng=0)
    core = SimulatedCore(MachineConfig(), rng=0)
    result = benchmark(core.run_block, block)
    assert result.cycles > 0
