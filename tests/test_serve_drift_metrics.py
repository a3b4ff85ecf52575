"""Metrics exposition format, drift monitoring, and the preflight."""

import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.core.tree import M5Prime
from repro.counters import ALL_EVENTS, PREDICTOR_NAMES
from repro.counters.invariants import (
    METRIC_INVARIANTS,
    RAW_COUNT_INVARIANTS,
    InvariantTable,
    applicable_invariants,
    check_dataset,
)
from repro.errors import ConfigError
from repro.serve.check import preflight, render_preflight
from repro.serve.drift import DriftMonitor
from repro.serve.metrics import Counter, Gauge, Histogram, MetricsRegistry
from repro.serve.registry import ModelRegistry


class TestCounter:
    def test_inc_and_render(self):
        counter = Counter("repro_things_total", "Things.", ("kind",))
        counter.inc("a")
        counter.inc("a")
        counter.inc("b", amount=3)
        assert counter.value("a") == 2
        lines = counter.render()
        assert "# TYPE repro_things_total counter" in lines
        assert 'repro_things_total{kind="a"} 2' in lines
        assert 'repro_things_total{kind="b"} 3' in lines

    def test_counters_only_go_up(self):
        with pytest.raises(ConfigError):
            Counter("c_total", "x").inc(amount=-1)

    def test_label_arity_enforced(self):
        with pytest.raises(ConfigError):
            Counter("c_total", "x", ("a", "b")).inc("only-one")

    def test_label_escaping(self):
        counter = Counter("c_total", "x", ("label",))
        counter.inc('with "quotes"\nand newline')
        line = [l for l in counter.render() if not l.startswith("#")][0]
        assert '\\"quotes\\"' in line and "\\n" in line


class TestHistogram:
    def test_cumulative_buckets(self):
        histogram = Histogram("h_seconds", "x", buckets=(0.1, 1.0, 10.0))
        for value in (0.05, 0.5, 0.5, 5.0, 50.0):
            histogram.observe(value)
        lines = histogram.render()
        assert 'h_seconds_bucket{le="0.1"} 1' in lines
        assert 'h_seconds_bucket{le="1"} 3' in lines
        assert 'h_seconds_bucket{le="10"} 4' in lines
        assert 'h_seconds_bucket{le="+Inf"} 5' in lines
        assert "h_seconds_count 5" in lines
        assert histogram.count() == 5

    def test_unsorted_buckets_rejected(self):
        with pytest.raises(ConfigError):
            Histogram("h", "x", buckets=(1.0, 0.5))


class TestRegistryOfMetrics:
    def test_render_order_and_duplicates(self):
        metrics = MetricsRegistry()
        metrics.counter("a_total", "A.")
        metrics.gauge("b", "B.")
        text = metrics.render()
        assert text.index("a_total") < text.index("# HELP b ")
        with pytest.raises(ConfigError):
            metrics.counter("a_total", "again")
        assert isinstance(metrics.get("b"), Gauge)
        with pytest.raises(ConfigError):
            metrics.get("missing")


class TestDriftMonitor:
    def test_out_of_range_counted_beyond_slack(self, suite_tree,
                                               suite_dataset):
        monitor = DriftMonitor(suite_tree, range_slack=0.10)
        assert monitor.monitors_ranges
        monitor.observe(suite_dataset.X)  # training data: inside by definition
        snapshot = monitor.snapshot()
        assert snapshot["rows_seen"] == suite_dataset.n_instances
        assert snapshot["out_of_range"] == {}

        wild = suite_dataset.X[:1].copy()
        wild[0, 0] = suite_dataset.X[:, 0].max() * 100 + 1e9
        monitor.observe(wild)
        snapshot = monitor.snapshot()
        feature = suite_tree.attributes_[0]
        assert snapshot["out_of_range"] == {feature: 1}

    def test_invariant_violations_counted(self, suite_tree, suite_dataset):
        monitor = DriftMonitor(suite_tree)
        broken = suite_dataset.X[:4].copy()
        names = list(suite_tree.attributes_)
        # Violate the Table I hierarchy: an L2 miss implies an L1D miss.
        broken[:, names.index("L2M")] = 0.9
        broken[:, names.index("L1DM")] = 0.1
        monitor.observe(broken)
        snapshot = monitor.snapshot()
        assert sum(snapshot["invariant_violations"].values()) > 0

    def test_render_metrics_lines(self, suite_tree, suite_dataset):
        monitor = DriftMonitor(suite_tree)
        monitor.observe(suite_dataset.X[:5])
        lines = monitor.render_metrics("cpi-tree@1")
        assert 'repro_drift_rows_total{model="cpi-tree@1"} 5' in lines

    def test_nan_inputs_counted(self, suite_tree, suite_dataset):
        monitor = DriftMonitor(suite_tree)
        broken = suite_dataset.X[:6].copy()
        broken[0, 0] = np.nan
        broken[2, 3] = np.inf
        monitor.observe(broken)
        snapshot = monitor.snapshot()
        assert snapshot["rows_seen"] == 6
        assert snapshot["nan_inputs"] == 2

    def test_predictions_checked_against_interval(self, suite_tree):
        monitor = DriftMonitor(suite_tree, output_interval=(0.0, 10.0))
        assert monitor.monitors_output
        monitor.observe_predictions(np.array([1.0, 5.0, 11.0, np.nan]))
        snapshot = monitor.snapshot()
        assert snapshot["predictions_seen"] == 4
        assert snapshot["out_of_bounds_predictions"] == 2

    def test_nonfinite_predictions_flagged_without_interval(self, suite_tree):
        monitor = DriftMonitor(suite_tree)
        assert not monitor.monitors_output
        monitor.observe_predictions(np.array([2.0, np.inf]))
        snapshot = monitor.snapshot()
        assert snapshot["out_of_bounds_predictions"] == 1

    def test_new_metric_families_rendered(self, suite_tree):
        monitor = DriftMonitor(suite_tree, output_interval=(0.0, 10.0))
        monitor.observe_predictions(np.array([42.0]))
        lines = monitor.render_metrics("m@1")
        assert 'repro_drift_nan_inputs_total{model="m@1"} 0' in lines
        assert 'repro_drift_predictions_total{model="m@1"} 1' in lines
        assert ('repro_drift_out_of_bounds_predictions_total{model="m@1"} 1'
                in lines)

    def test_model_without_ranges(self, suite_tree):
        bare = M5Prime()
        bare.root_ = suite_tree.root_
        bare.attributes_ = suite_tree.attributes_
        monitor = DriftMonitor(bare)
        assert not monitor.monitors_ranges
        monitor.observe(np.zeros((2, len(bare.attributes_))))
        assert monitor.snapshot()["out_of_range"] == {}


class TestPreflight:
    def test_clean_registry_passes(self, tmp_path, suite_tree):
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish("cpi-tree", suite_tree)
        results = preflight(registry)
        assert all(r.ok for r in results)
        names = [r.name for r in results]
        assert names == [
            "manifest", "resolve", "compile", "verify", "compiled-parity",
            "drift",
        ]
        assert "preflight passed" in render_preflight(results)

    def test_empty_registry_fails(self, tmp_path):
        results = preflight(ModelRegistry(tmp_path / "registry"))
        assert not all(r.ok for r in results)
        assert "FAILED" in render_preflight(results)

    def test_corrupt_blob_fails_resolve_probe(self, tmp_path, suite_tree):
        registry = ModelRegistry(tmp_path / "registry")
        record = registry.publish("cpi-tree", suite_tree)
        blob = registry.directory / record.blob
        blob.write_text("garbage")
        with pytest.warns(RuntimeWarning, match="quarantined"):
            results = preflight(registry, model_spec="cpi-tree@1")
        failed = [r for r in results if not r.ok]
        assert failed and failed[0].name == "resolve"

    def test_smoothed_model_parity(self, tmp_path, suite_dataset):
        model = M5Prime(min_instances=12, smoothing=True).fit(suite_dataset)
        registry = ModelRegistry(tmp_path / "registry")
        registry.publish("smooth", model)
        results = preflight(registry)
        parity = [r for r in results if r.name == "compiled-parity"][0]
        assert parity.ok and "smoothing" in parity.detail


class TestDriftMonitorConcurrency:
    def test_counters_exact_under_concurrent_observe(
        self, suite_tree, suite_dataset
    ):
        """Regression: counter updates must be atomic under /predict load.

        Eight threads each fold 50 batches of 4 rows; if the lock around
        the counter updates were missing (or a read-modify-write escaped
        it), lost updates would make the totals come up short.
        """
        import threading

        monitor = DriftMonitor(suite_tree)
        rows = suite_dataset.X[:4]
        n_threads, n_batches = 8, 50

        def hammer():
            for _ in range(n_batches):
                monitor.observe(rows)
                monitor.observe_predictions(np.zeros(rows.shape[0]))

        threads = [threading.Thread(target=hammer) for _ in range(n_threads)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=30)
            assert not thread.is_alive()
        snapshot = monitor.snapshot()
        expected = n_threads * n_batches * rows.shape[0]
        assert snapshot["rows_seen"] == expected
        assert snapshot["predictions_seen"] == expected


#: Values that sit on the tolerance edges (a rule's threshold is
#: ``rhs + 1e-6 * max(1, |rhs|)``; adding a few 1.2e-16 to it rounds
#: differently in different orders), tie with each other, or are
#: non-finite or negative, mixed with arbitrary floats.
_EDGE_VALUES = (
    0.0, -0.0, 6e-17, 1.2e-16, 1e-6, 0.1, 0.2, 0.3, 0.5, 0.5 + 1e-6,
    1.0, 1.0 + 1e-6, 2.0, -1e-9, -1.0, np.nan, np.inf, -np.inf,
)
_VALUES = st.one_of(
    st.sampled_from(_EDGE_VALUES),
    st.floats(-2.0, 2.0),
    st.floats(allow_nan=True, allow_infinity=True),
)


@st.composite
def _batch(draw, names):
    """A column subset of ``names`` (in drawn order) and rows over it."""
    columns = draw(st.lists(
        st.sampled_from(names), min_size=1, max_size=len(names), unique=True,
    ))
    n_rows = draw(st.integers(1, 12))
    cells = draw(st.lists(
        _VALUES, min_size=n_rows * len(columns),
        max_size=n_rows * len(columns),
    ))
    return columns, np.array(cells, dtype=np.float64).reshape(
        n_rows, len(columns)
    )


class TestDriftMonitorOracle:
    """The compiled drift check against ``check_dataset``, its reference."""

    @settings(max_examples=150, deadline=None)
    @given(
        batch=_batch(PREDICTOR_NAMES + ("Extra",)),
        ranges=st.none() | st.lists(
            st.tuples(st.floats(-1.0, 1.0), st.floats(0.0, 1.0)),
            min_size=len(PREDICTOR_NAMES) + 1,
            max_size=len(PREDICTOR_NAMES) + 1,
        ),
        cut=st.integers(0, 12),
    )
    # The instruction mix sums to the rule's threshold left to right but
    # one ulp above it right to left: only the rule's own order agrees.
    @example(
        batch=(["InstLd", "InstSt", "BrMisPr", "BrPred", "InstOther"],
               np.array([[1.0 + 1e-6, 6e-17, 6e-17, 0.0, 0.0]])),
        ranges=None, cut=0,
    )
    def test_observe_counts_match_check_dataset(self, batch, ranges, cut):
        names, X = batch
        model = M5Prime()
        model.attributes_ = list(names)
        if ranges is not None:
            # Zero spans (low == high) take the other slack branch.
            ranges = [(low, low + span * (span > 0.5))
                      for low, span in ranges[:len(names)]]
        model.feature_ranges_ = ranges
        monitor = DriftMonitor(model, range_slack=0.1)
        rules = applicable_invariants(METRIC_INVARIANTS, names)
        with np.errstate(invalid="ignore", over="ignore"):
            # Two batches: the counters accumulate.
            monitor.observe(X[:cut])
            monitor.observe(X[cut:])
            found = check_dataset(
                {name: X[:, i] for i, name in enumerate(names)},
                rules, check_negative=False,
            )
        snapshot = monitor.snapshot()
        assert snapshot["invariant_violations"] == {
            v.invariant: v.n_rows for v in found
        }
        assert snapshot["nan_inputs"] == sum(
            not all(np.isfinite(value) for value in row) for row in X
        )
        expected_range = {}
        for i, name in enumerate(names if ranges is not None else ()):
            low, high = ranges[i]
            span = high - low
            margin = 0.1 * (span if span > 0 else max(abs(high), 1.0))
            count = sum(
                value < low - margin or value > high + margin
                for value in X[:, i]
            )
            if count:
                expected_range[name] = count
        assert snapshot["out_of_range"] == expected_range
        assert snapshot["rows_seen"] == X.shape[0]

    def test_counts_match_check_dataset_near_the_float_limit(self):
        # Finite rows whose rule sides sum past the float limit: both
        # checks count the same rows, and neither warns of the overflow.
        width = len(PREDICTOR_NAMES)
        X = np.array([
            [1e308] * width,
            [1e308 if i % 2 else -1e308 for i in range(width)],
            [-1e308 if i % 2 else 1e308 for i in range(width)],
        ])
        model = M5Prime()
        model.attributes_ = list(PREDICTOR_NAMES)
        monitor = DriftMonitor(model, range_slack=0.1)
        rules = applicable_invariants(METRIC_INVARIANTS, PREDICTOR_NAMES)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            monitor.observe(X)
            found = check_dataset(
                {name: X[:, i] for i, name in enumerate(PREDICTOR_NAMES)},
                rules, check_negative=False,
            )
        assert found
        assert monitor.snapshot()["invariant_violations"] == {
            v.invariant: v.n_rows for v in found
        }

    @settings(max_examples=100, deadline=None)
    @given(batch=_batch(tuple(event.name for event in ALL_EVENTS)))
    def test_table_matches_check_dataset_on_raw_counts(self, batch):
        # Raw rules include "positive" ones, and absent columns read as
        # zero on both sides, as check_dataset reads them.
        names, X = batch
        with np.errstate(invalid="ignore", over="ignore"):
            found = check_dataset(
                {name: X[:, i] for i, name in enumerate(names)},
                RAW_COUNT_INVARIANTS, check_negative=False,
            )
            counts = InvariantTable(RAW_COUNT_INVARIANTS, names).count(X)
        assert {
            inv.name: int(count)
            for inv, count in zip(RAW_COUNT_INVARIANTS, counts) if count
        } == {v.invariant: v.n_rows for v in found}
