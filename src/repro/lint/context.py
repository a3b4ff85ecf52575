"""The inputs and tunables a lint run carries to every rule."""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Union

from repro.core.tree.m5 import M5Prime
from repro.lint.loading import Table


@dataclass(frozen=True)
class LintConfig:
    """Thresholds the rules judge against.

    Attributes:
        ratio_bound: Upper bound for per-instruction ratio columns; every
            Table I predictor counts a subset of retired instructions, so
            1.0 is the architectural ceiling.
        outlier_z: Robust z-score (median/MAD) beyond which a target value
            counts as an outlier.
        leakage_corr: |correlation| with the target at or above which an
            attribute column is flagged as likely target leakage.
        roundtrip_tol: Maximum |prediction drift| tolerated across a
            serialize -> deserialize round trip.
        coefficient_bound: |coefficient| above which a leaf model is
            considered degenerate (the collinearity-explosion signature).
        range_slack: Fraction of a feature's training span that dataset
            values may exceed the trained range by before the
            compatibility rules flag them.
        max_probe_points: Cap on synthetic probe instances used by the
            round-trip rule.
        calibration_rel_err: Recorded in-sample relative-error p95 above
            which a fastsim calibration draws a quality warning.  The
            stat is measured over the jittered sweep against single
            noisy oracle samples, so it sits well above the jitter=0
            drift the FAST00x gates bound.
    """

    ratio_bound: float = 1.0
    outlier_z: float = 8.0
    leakage_corr: float = 0.9999
    roundtrip_tol: float = 1e-8
    coefficient_bound: float = 1e6
    range_slack: float = 0.10
    max_probe_points: int = 128
    calibration_rel_err: float = 0.20


@dataclass
class LintContext:
    """Everything a rule may inspect: the model, the data, the config.

    ``dataset`` is always the lenient :class:`~repro.lint.loading.Table`
    view by the time rules see it — the runner converts a
    :class:`~repro.datasets.dataset.Dataset` on entry — so rules can
    inspect NaN-bearing tables a validating Dataset would refuse to hold.
    """

    model: Optional[M5Prime] = None
    dataset: Optional[Table] = None
    cache_dir: Optional[Path] = None
    registry_dir: Optional[Path] = None
    #: Fastsim calibration artifact to audit: the serialized payload
    #: dict or a path to the JSON file (the fastsim rules load it
    #: leniently — a broken artifact is a finding, not a crash).
    calibration: Optional[Union[Path, Dict[str, object]]] = None
    config: LintConfig = field(default_factory=LintConfig)
