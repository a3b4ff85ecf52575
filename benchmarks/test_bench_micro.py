"""Micro-benchmarks of the hot paths the parallel layer accelerates.

Unlike the artifact benchmarks (which each time one whole experiment),
these isolate the hot operations — tree fit, prediction, cross
validation, split search and suite simulation — so the CI regression
gate catches a slow-down in any one of them even when the
experiment-level numbers hide it.  Batch predict throughput over 10k
rows is timed in ``test_bench_serve.py`` (trees) and
``test_bench_forest.py`` (forests).
"""

import functools

import numpy as np
import pytest

from repro.core.tree import M5Prime
from repro.core.tree.splitting import find_best_split
from repro.evaluation import cross_validate
from repro.workloads import simulate_suite


@pytest.fixture(scope="module")
def factory(config):
    return functools.partial(M5Prime, min_instances=config.min_instances)


@pytest.fixture(scope="module")
def fitted(factory, bench_dataset):
    return factory().fit(bench_dataset)


def test_micro_fit(benchmark, factory, bench_dataset):
    benchmark(lambda: factory().fit(bench_dataset))


def test_micro_predict(benchmark, fitted, bench_dataset):
    benchmark(lambda: fitted.predict(bench_dataset.X))


def test_micro_cross_validate(benchmark, factory, bench_dataset, config):
    benchmark.pedantic(
        lambda: cross_validate(
            factory, bench_dataset, n_folds=config.n_folds, rng=config.seed
        ),
        rounds=1,
        iterations=1,
    )


def test_micro_find_best_split(benchmark, bench_dataset):
    X, y = bench_dataset.X, bench_dataset.y
    benchmark(lambda: find_best_split(X, y, min_leaf=25))


def test_micro_suite_simulate(benchmark):
    result = benchmark.pedantic(
        lambda: simulate_suite(
            sections_per_workload=8, instructions_per_section=512, seed=7
        ),
        rounds=1,
        iterations=1,
    )
    assert np.isfinite(result.dataset.y).all()
