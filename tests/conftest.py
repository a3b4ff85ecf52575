"""Shared fixtures: small deterministic datasets and fitted models."""

import random

import numpy as np
import pytest

from repro.core.tree import M5Prime
from repro.datasets.synthetic import figure1_dataset
from repro.workloads import simulate_suite


def _np_states_equal(before, after) -> bool:
    return all(
        np.array_equal(x, y) if isinstance(x, np.ndarray) else x == y
        for x, y in zip(before, after)
    )


@pytest.fixture(autouse=True)
def _global_rng_guard(request):
    """Fail any test that mutates global RNG state.

    Reproducibility here rests on explicit ``np.random.Generator``
    objects threaded through every API; code reaching for the legacy
    global streams (``np.random.seed``/``np.random.rand``/
    ``random.random``) makes results depend on test execution order.
    Hypothesis manages (and restores) the global streams itself, so
    property tests pass through untouched.
    """
    python_state = random.getstate()
    numpy_state = np.random.get_state()
    yield
    if random.getstate() != python_state:
        pytest.fail(
            "test mutated the global `random` module state; use an "
            "explicit seeded generator instead", pytrace=False,
        )
    if not _np_states_equal(numpy_state, np.random.get_state()):
        pytest.fail(
            "test mutated the global numpy RNG state; use "
            "np.random.default_rng(seed) instead", pytrace=False,
        )


@pytest.fixture
def rng():
    """A fresh deterministic generator per test."""
    return np.random.default_rng(0)


@pytest.fixture(scope="session")
def suite_result():
    """A small but phase-structured simulated suite (shared, read-only)."""
    return simulate_suite(
        sections_per_workload=12, instructions_per_section=384, seed=3
    )


@pytest.fixture(scope="session")
def suite_dataset(suite_result):
    return suite_result.dataset


@pytest.fixture(scope="session")
def figure1_data():
    """Piecewise-linear ground truth matching the paper's Figure 1."""
    return figure1_dataset(n=1500, noise_sd=0.05, rng=1)


@pytest.fixture(scope="session")
def figure1_tree(figure1_data):
    """An M5' tree fitted on the Figure 1 data (shared, read-only)."""
    return M5Prime(min_instances=40).fit(figure1_data)


@pytest.fixture(scope="session")
def suite_tree(suite_dataset):
    """An M5' tree fitted on the small suite dataset (shared, read-only)."""
    return M5Prime(min_instances=12).fit(suite_dataset)


@pytest.fixture(scope="session")
def quick_dataset(tmp_path_factory):
    """The quick-preset suite dataset (shared, read-only)."""
    from repro.experiments import ExperimentConfig, suite_dataset

    return suite_dataset(
        ExperimentConfig.quick(), cache_dir=tmp_path_factory.mktemp("cache")
    )


@pytest.fixture(scope="session")
def fast_profiles():
    """Two tiny single-phase workloads for fast-engine tests.

    Small footprints keep the calibration's trace-oracle legs cheap; one
    cache-resident and one jumping phase exercise both anchor regimes.
    """
    from repro.workloads import PhaseParams, WorkloadProfile

    return [
        WorkloadProfile.single_phase(
            "tiny_hot",
            PhaseParams(
                data_footprint=32 << 10, hot_set_bytes=8 << 10,
                hot_fraction=0.95,
            ),
        ),
        WorkloadProfile.single_phase(
            "tiny_jump",
            PhaseParams(
                data_footprint=8 << 20, hot_set_bytes=4 << 10,
                hot_fraction=0.2, stride_fraction=0.1,
            ),
        ),
    ]


@pytest.fixture(scope="session")
def small_calibration(fast_profiles):
    """A fast-engine calibration over the tiny profiles (shared, read-only)."""
    from repro.fastsim import calibrate

    return calibrate(profiles=fast_profiles, seed=7, replicas=4,
                     instructions=2048)
