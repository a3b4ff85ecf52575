"""Conversion from raw per-section event counts to metric vectors.

The collection pipeline (hardware PMU in the paper, the simulator here)
produces one dict of raw event counts per section.  These helpers turn
such dicts into the numeric rows the learners consume.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.counters import events as ev
from repro.counters.metrics import PREDICTOR_METRICS, TARGET_METRIC
from repro.errors import DataError, MissingEventError

CountMap = Mapping[str, float]


def validate_counts(counts: CountMap) -> None:
    """Check that a raw count snapshot is usable for metric derivation.

    Every event named in a metric formula must be present, counts must be
    non-negative, and the instruction denominator must be positive.
    """
    for event in ev.ALL_EVENTS:
        if event.name not in counts:
            raise MissingEventError(event.name)
    for name, value in counts.items():
        if value < 0:
            raise DataError(f"event {name!r} has negative count {value!r}")
    if counts[ev.INST_RETIRED_ANY.name] <= 0:
        raise DataError("INST_RETIRED.ANY must be positive to form ratios")


def metric_vector(counts: CountMap) -> np.ndarray:
    """Compute the 20 predictor metrics for one section, in Table I order."""
    validate_counts(counts)
    return np.array([m.compute(counts) for m in PREDICTOR_METRICS], dtype=np.float64)


def metric_row(counts: CountMap) -> Dict[str, float]:
    """Compute all metrics (CPI included) for one section as a name->value dict."""
    validate_counts(counts)
    row = {TARGET_METRIC.name: TARGET_METRIC.compute(counts)}
    for metric in PREDICTOR_METRICS:
        row[metric.name] = metric.compute(counts)
    return row


def sections_to_dataset(
    section_counts: Sequence[CountMap],
    workloads: Optional[Sequence[str]] = None,
):
    """Build a :class:`repro.datasets.Dataset` from per-section raw counts.

    Args:
        section_counts: One raw count dict per section.
        workloads: Optional per-section workload labels, stored as dataset
            metadata so analyses can group sections by benchmark.

    Returns:
        A dataset whose attributes are the 20 Table I predictors and whose
        target is CPI.
    """
    from repro.datasets.dataset import Dataset

    if not section_counts:
        raise DataError("cannot build a dataset from zero sections")
    if workloads is not None and len(workloads) != len(section_counts):
        raise DataError(
            f"{len(workloads)} workload labels for {len(section_counts)} sections"
        )

    rows: List[np.ndarray] = []
    targets: List[float] = []
    for counts in section_counts:
        validate_counts(counts)
        rows.append(metric_vector(counts))
        targets.append(TARGET_METRIC.compute(counts))

    meta = None
    if workloads is not None:
        meta = {"workload": np.asarray(workloads, dtype=object)}
    return Dataset(
        X=np.vstack(rows),
        y=np.asarray(targets, dtype=np.float64),
        attributes=tuple(m.name for m in PREDICTOR_METRICS),
        target_name=TARGET_METRIC.name,
        meta=meta,
    )
