"""Online drift detection for served models.

CounterPoint's lesson (PAPERS.md) is that counter-driven models rot
silently: the tree keeps answering while the traffic wanders out of the
regime it was trained on.  :class:`DriftMonitor` watches every scored
batch for signals derived from artifacts the training stack already
produces:

* **Out-of-range inputs** — values outside the per-feature
  ``feature_ranges_`` recorded at fit time (with the same slack the
  COMPAT lint rules apply).  There the tree extrapolates linearly,
  which the paper never validated.
* **Non-finite inputs** — NaN/inf feature values.  NaN compares false
  against every bound, so these would sail through the range check;
  they are counted separately (``nan_inputs``) because they signal a
  broken feed, not a drifted one.
* **Invariant violations** — rows breaking the Table I event hierarchy
  (:data:`repro.counters.invariants.METRIC_INVARIANTS`), the signature
  of corrupt or mislabeled counter feeds rather than workload change.
  The rules the model's columns can express are compiled once into an
  :class:`~repro.counters.invariants.InvariantTable`, which counts per
  batch exactly the rows
  :func:`~repro.counters.invariants.check_dataset` flags.
* **Out-of-bounds predictions** — outputs escaping the interval the
  static verifier certified at publish time
  (:mod:`repro.verify`).  A certified model *cannot* produce such a
  value from in-domain inputs, so one appearing means the inputs left
  the domain or the artifact changed — either way, page someone.

Counts surface through the server's ``/metrics`` endpoint
(``repro_drift_*`` families) so an operator alerts on drift the same
way they alert on latency.
"""

from __future__ import annotations

import threading
from typing import Dict, List, Optional, Tuple

import numpy as np

from repro.core.tree.m5 import M5Prime
from repro.counters.invariants import (
    METRIC_INVARIANTS,
    InvariantTable,
    applicable_invariants,
)

__all__ = ["DriftMonitor", "DriftSnapshot"]


class DriftSnapshot(Dict[str, object]):
    """Plain-dict snapshot of a monitor's counts (JSON-friendly)."""


class DriftMonitor:
    """Accumulates drift statistics for one served model.

    Args:
        model: The fitted model whose training regime defines "normal".
        range_slack: Fraction of each feature's training span the value
            may exceed the range by before counting as out-of-range —
            the same default the COMPAT003 lint rule uses, so offline
            lint and online drift agree on what "outside" means.
        output_interval: The certified whole-model ``(low, high)``
            prediction bound from the model's
            :class:`~repro.verify.certificate.VerificationCertificate`;
            predictions escaping it are counted as out-of-bounds.
            ``None`` disables the bound check (uncertified models).
    """

    def __init__(
        self,
        model: M5Prime,
        range_slack: float = 0.10,
        output_interval: Optional[Tuple[float, float]] = None,
    ) -> None:
        self.attributes: Tuple[str, ...] = tuple(model.attributes_)
        self.range_slack = float(range_slack)
        self.output_interval = (
            None if output_interval is None
            else (float(output_interval[0]), float(output_interval[1]))
        )
        self._lock = threading.Lock()
        self.rows_seen = 0
        self.nan_inputs = 0
        self.predictions_seen = 0
        self.out_of_bounds_predictions = 0
        self.out_of_range: Dict[str, int] = {}
        self.violations: Dict[str, int] = {}
        self._invariants = InvariantTable(
            applicable_invariants(METRIC_INVARIANTS, self.attributes),
            self.attributes,
        )
        if model.feature_ranges_ is not None:
            self._low = np.array([low for low, _ in model.feature_ranges_])
            self._high = np.array([high for _, high in model.feature_ranges_])
            span = self._high - self._low
            margin = self.range_slack * np.where(
                span > 0, span, np.maximum(np.abs(self._high), 1.0)
            )
            self._low = self._low - margin
            self._high = self._high + margin
        else:
            self._low = None
            self._high = None

    def observe(self, X: np.ndarray) -> None:
        """Fold one scored batch into the counters (vectorized)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[0] == 0:
            return
        # NaN/inf would compare false against every range bound and
        # poison the invariant sums; count the rows explicitly.
        nonfinite_rows = int(np.count_nonzero(~np.isfinite(X).all(axis=1)))
        out_of_range: List[Tuple[str, int]] = []
        if self._low is not None:
            outside = np.count_nonzero(
                (X < self._low) | (X > self._high), axis=0
            )
            out_of_range = [
                (self.attributes[i], int(outside[i]))
                for i in np.flatnonzero(outside)
            ]
        violated = self._invariants.count(X)
        violations = [
            (self._invariants.invariants[i].name, int(violated[i]))
            for i in np.flatnonzero(violated)
        ]
        with self._lock:
            self.rows_seen += int(X.shape[0])
            self.nan_inputs += nonfinite_rows
            for name, count in out_of_range:
                self.out_of_range[name] = self.out_of_range.get(name, 0) + count
            for name, count in violations:
                self.violations[name] = self.violations.get(name, 0) + count

    def observe_predictions(self, predictions: np.ndarray) -> None:
        """Check a batch of model outputs against the certified bound.

        Non-finite predictions always count as out-of-bounds (they are
        inside no interval); finite ones only when a certified
        ``output_interval`` exists to compare against.
        """
        predictions = np.asarray(predictions, dtype=np.float64).ravel()
        if predictions.shape[0] == 0:
            return
        finite = np.isfinite(predictions)
        bad = ~finite
        if self.output_interval is not None:
            low, high = self.output_interval
            bad = bad | (predictions < low) | (predictions > high)
        n_bad = int(np.count_nonzero(bad))
        with self._lock:
            self.predictions_seen += int(predictions.shape[0])
            self.out_of_bounds_predictions += n_bad

    @property
    def monitors_ranges(self) -> bool:
        """False for pre-range model documents (nothing to compare to)."""
        return self._low is not None

    @property
    def monitors_output(self) -> bool:
        """Whether a certified prediction bound is being enforced."""
        return self.output_interval is not None

    def snapshot(self) -> DriftSnapshot:
        """Counts so far: rows seen, out-of-range by feature, violations."""
        with self._lock:
            return DriftSnapshot(
                rows_seen=self.rows_seen,
                nan_inputs=self.nan_inputs,
                predictions_seen=self.predictions_seen,
                out_of_bounds_predictions=self.out_of_bounds_predictions,
                out_of_range=dict(sorted(self.out_of_range.items())),
                invariant_violations=dict(sorted(self.violations.items())),
            )

    def render_metrics(self, model_label: str) -> List[str]:
        """Prometheus exposition lines for this monitor."""
        snap = self.snapshot()
        lines = [
            "# HELP repro_drift_rows_total Rows scored by the drift monitor.",
            "# TYPE repro_drift_rows_total counter",
            f'repro_drift_rows_total{{model="{model_label}"}} '
            f"{snap['rows_seen']}",
            "# HELP repro_drift_nan_inputs_total Rows containing NaN/inf "
            "feature values.",
            "# TYPE repro_drift_nan_inputs_total counter",
            f'repro_drift_nan_inputs_total{{model="{model_label}"}} '
            f"{snap['nan_inputs']}",
            "# HELP repro_drift_predictions_total Predictions checked "
            "against the certified output bound.",
            "# TYPE repro_drift_predictions_total counter",
            f'repro_drift_predictions_total{{model="{model_label}"}} '
            f"{snap['predictions_seen']}",
            "# HELP repro_drift_out_of_bounds_predictions_total Predictions "
            "outside the certified output interval (or non-finite).",
            "# TYPE repro_drift_out_of_bounds_predictions_total counter",
            f'repro_drift_out_of_bounds_predictions_total{{'
            f'model="{model_label}"}} {snap["out_of_bounds_predictions"]}',
            "# HELP repro_drift_out_of_range_total Values outside the "
            "feature's training range (with slack).",
            "# TYPE repro_drift_out_of_range_total counter",
        ]
        for feature, count in snap["out_of_range"].items():  # type: ignore[union-attr]
            lines.append(
                f'repro_drift_out_of_range_total{{model="{model_label}",'
                f'feature="{feature}"}} {count}'
            )
        lines.append(
            "# HELP repro_drift_invariant_violations_total Rows violating "
            "a Table I metric invariant."
        )
        lines.append("# TYPE repro_drift_invariant_violations_total counter")
        for invariant, count in snap["invariant_violations"].items():  # type: ignore[union-attr]
            lines.append(
                f'repro_drift_invariant_violations_total{{model="{model_label}",'
                f'invariant="{invariant}"}} {count}'
            )
        return lines
