"""The ``fastsim`` rule family: calibration-artifact audit (FASTSIM0xx).

A fastsim calibration artifact is the fast engine's license to operate:
it encodes which machine physics and which workload suite its anchors
and residual tree were fitted against.  Serving predictions from a
stale or corrupt calibration silently substitutes a *different*
machine's CPI for the one being studied, so these rules audit the
serialized artifact before the engine loads it.  They report the checks
the engine itself makes:

* ``FASTSIM001`` (error): the artifact does not load — the file is
  unreadable or not valid JSON, or
  :meth:`~repro.fastsim.calibration.Calibration.from_dict`, the one
  parser, refuses it (a non-object, a wrong schema, a missing key, a
  mistyped field, an empty or non-finite anchor or correction table, a
  residual model that is not a fitted M5' tree).
* ``FASTSIM003`` (error): one finding per
  :meth:`~repro.fastsim.calibration.Calibration.staleness` problem
  against the current machine and suite — a machine or workload
  fingerprint mismatch, or stored feature names that differ from the
  analytical layer's.  ``fast_suite`` refuses such an artifact.
* ``FASTSIM006`` (warning): fit-quality stats are missing, or the
  recorded in-sample relative-error p95 exceeds
  ``LintConfig.calibration_rel_err`` — the artifact loads but its
  corrections are suspect.
"""

from __future__ import annotations

import json
import math
from pathlib import Path
from typing import TYPE_CHECKING, Any, Iterator, Optional, Tuple

from repro.errors import ParseError
from repro.lint.context import LintContext
from repro.lint.diagnostics import Severity
from repro.lint.registry import FAMILY_FASTSIM, rule

if TYPE_CHECKING:
    from repro.fastsim.calibration import Calibration

Finding = Tuple[str, str]


def _load(
    context: LintContext,
) -> Tuple[Optional["Calibration"], Optional[str], str]:
    """The parsed artifact, or why it does not load; and a location."""
    from repro.fastsim.calibration import Calibration

    source = context.calibration
    if isinstance(source, dict):
        document: Any = source
        location = "<calibration>"
    else:
        location = str(source)
        try:
            text = Path(location).read_text(encoding="utf-8")
        except OSError as exc:
            return None, f"calibration artifact is unreadable: {exc}", location
        try:
            document = json.loads(text)
        except json.JSONDecodeError as exc:
            return (
                None, f"calibration artifact is not valid JSON: {exc}",
                location,
            )
    try:
        return Calibration.from_dict(document), None, location
    except ParseError as exc:
        return None, str(exc), location


@rule(
    "FASTSIM001",
    FAMILY_FASTSIM,
    Severity.ERROR,
    "the calibration artifact must load through Calibration.from_dict",
)
def check_artifact(context: LintContext) -> Iterator[Finding]:
    _, failure, location = _load(context)
    if failure is not None:
        yield (failure, location)


@rule(
    "FASTSIM003",
    FAMILY_FASTSIM,
    Severity.ERROR,
    "the calibration must be fresh for the current machine and suite",
)
def check_freshness(context: LintContext) -> Iterator[Finding]:
    calibration, _, location = _load(context)
    if calibration is None:
        return
    for problem in calibration.staleness():
        yield (
            f"{problem}: recalibrate before running the fast engine",
            location,
        )


@rule(
    "FASTSIM006",
    FAMILY_FASTSIM,
    Severity.WARNING,
    "fit-quality stats should exist and sit under the error bound",
)
def check_fit_quality(context: LintContext) -> Iterator[Finding]:
    calibration, _, location = _load(context)
    if calibration is None:
        return
    rel_err = calibration.stats.get("rel_err_p95")
    bound = context.config.calibration_rel_err
    if rel_err is None:
        yield (
            "calibration carries no fit-quality stats (rel_err_p95): "
            "its accuracy was never measured",
            location,
        )
    elif not math.isfinite(rel_err):
        yield (f"rel_err_p95 is not a finite number: {rel_err!r}", location)
    elif rel_err > bound:
        yield (
            f"in-sample relative-error p95 {rel_err:.4f} exceeds "
            f"{bound:.4f}: the calibration fits its own sweep poorly",
            location,
        )
