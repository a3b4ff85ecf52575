"""Conformance report: structured divergence diagnostics.

Differential, metamorphic and fuzzing checks all fold their findings
into one :class:`ConformanceReport` built from the same
:class:`~repro.lint.diagnostics.Diagnostic` records the lint subsystem
uses, and the JSON rendering rides the shared ``repro-report`` envelope
(:func:`repro.lint.reporters.json_document`) — so CI consumes ``repro
conformance --format json`` and ``repro lint --format json`` with one
parser.

Check identifiers:

======== ==============================================================
CONF001  oracle vs production tree structure diverged
CONF002  oracle vs production predictions diverged
CONF003  oracle vs production leaf (class) assignment diverged
CONF004  compiled vs interpreted inference diverged
CONF005  JSON round trip altered the tree or its predictions
CONF006  serial vs parallel cross-validation diverged
CONF007  static verification failed or certified bounds were escaped
META001  row-permutation invariance violated
META002  feature-permutation invariance violated
META003  affine target scaling did not scale leaf models
META004  duplicated-dataset invariance violated
META005  min-leaf-population monotonicity violated
FUZZ001  loader raised an untyped exception (crash) on fuzzed input
FAST001  fastsim calibration is stale (fingerprint or feature names)
FAST002  fastsim per-section CPI error exceeded the p95 tolerance
FAST003  fastsim per-workload mean CPI error exceeded tolerance
FAST004  fastsim dataset violated Table I metric invariants
FAST005  fastsim fast engine repeat run was not bit-identical
======== ==============================================================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

from repro.lint.diagnostics import Diagnostic, Severity
from repro.lint.reporters import json_document


@dataclass
class ConformanceReport:
    """The outcome of one conformance run.

    Attributes:
        diagnostics: Every divergence found (empty = fully conformant).
        n_checks: Individual assertions executed (clean ones included).
        n_cases: Dataset/parameter cases the differential runner covered.
        tier: The tier that ran (``"quick"`` or ``"deep"``).
        seed: Master seed of the run (every case derives from it).
    """

    diagnostics: List[Diagnostic] = field(default_factory=list)
    n_checks: int = 0
    n_cases: int = 0
    tier: str = "quick"
    seed: int = 0

    @property
    def n_divergences(self) -> int:
        return sum(
            1 for d in self.diagnostics if d.severity is Severity.ERROR
        )

    @property
    def is_clean(self) -> bool:
        return not self.diagnostics

    def add(self, check_id: str, message: str, location: str = "") -> None:
        """Record one divergence (always an ERROR — conformance is binary)."""
        self.diagnostics.append(
            Diagnostic(
                rule_id=check_id,
                severity=Severity.ERROR,
                message=message,
                location=location,
            )
        )

    def merge(self, other: "ConformanceReport") -> None:
        self.diagnostics.extend(other.diagnostics)
        self.n_checks += other.n_checks
        self.n_cases += other.n_cases

    def exit_code(self) -> int:
        """CI contract: 0 fully conformant, 2 on any divergence."""
        return 2 if self.diagnostics else 0

    def summary(self) -> str:
        if self.is_clean:
            return (
                f"conformant: {self.n_checks} check(s) over {self.n_cases} "
                f"case(s), tier {self.tier}, seed {self.seed}"
            )
        return (
            f"{self.n_divergences} divergence(s) in {self.n_checks} check(s) "
            f"over {self.n_cases} case(s), tier {self.tier}, seed {self.seed}"
        )

    def render_text(self) -> str:
        lines = [diagnostic.render() for diagnostic in self.diagnostics]
        lines.append(self.summary())
        return "\n".join(lines)

    def to_dict(self) -> Dict[str, Any]:
        return {
            "tier": self.tier,
            "seed": self.seed,
            "n_cases": self.n_cases,
            "n_checks": self.n_checks,
            "n_divergences": self.n_divergences,
            "clean": self.is_clean,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }

    def render_json(self) -> str:
        return json_document("conformance", self.to_dict())
