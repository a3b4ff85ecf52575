"""Diagnostic and report types for the lint subsystem.

A lint run produces a :class:`LintReport`: a flat list of
:class:`Diagnostic` records, each tagged with the stable id of the rule
that emitted it, a severity, a human-readable message and a location
string ("leaf LM3", "column L2M", "rows 4, 17").  The report knows how
to fold itself into the CI-friendly exit-code contract of ``repro
lint``: 0 clean, 1 warnings under ``--strict``, 2 errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Any, Dict, List, Tuple


class Severity(Enum):
    """How bad a finding is.

    ``ERROR`` findings invalidate the artifact (a model that cannot be
    trusted, data that cannot be modeled); ``WARNING`` findings are
    suspicious but survivable; ``INFO`` is advisory.
    """

    INFO = "info"
    WARNING = "warning"
    ERROR = "error"


@dataclass(frozen=True)
class Diagnostic:
    """One finding from one rule.

    Attributes:
        rule_id: Stable identifier of the emitting rule (``"TREE001"``).
        severity: :class:`Severity` of this finding.
        message: Human-readable description of the defect.
        location: Where in the artifact the defect lives, e.g.
            ``"leaf LM3"`` or ``"column L2M"``; empty when the finding is
            about the artifact as a whole.
    """

    rule_id: str
    severity: Severity
    message: str
    location: str = ""

    def render(self) -> str:
        where = f" [{self.location}]" if self.location else ""
        return f"{self.severity.value:<7} {self.rule_id:<9}{where} {self.message}"

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rule_id": self.rule_id,
            "severity": self.severity.value,
            "message": self.message,
            "location": self.location,
        }


@dataclass
class LintReport:
    """The outcome of one lint run.

    Attributes:
        diagnostics: Every finding, in rule-registration order.
        families: The rule families that actually ran
            (subset of ``("tree", "dataset", "compat")``).
        n_rules: How many rules ran (clean rules included).
    """

    diagnostics: List[Diagnostic] = field(default_factory=list)
    families: Tuple[str, ...] = ()
    n_rules: int = 0

    @property
    def n_errors(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity is Severity.ERROR)

    @property
    def n_warnings(self) -> int:
        return sum(1 for d in self.diagnostics if d.severity is Severity.WARNING)

    @property
    def is_clean(self) -> bool:
        return not self.diagnostics

    def by_rule(self, rule_id: str) -> List[Diagnostic]:
        """All findings emitted by one rule."""
        return [d for d in self.diagnostics if d.rule_id == rule_id]

    def exit_code(self, strict: bool = False) -> int:
        """The ``repro lint`` exit-code contract.

        0 when clean (or only ``INFO``), 1 when the worst finding is a
        warning and ``strict`` is set, 2 on any error.
        """
        if self.n_errors:
            return 2
        if self.n_warnings and strict:
            return 1
        return 0

    def summary(self) -> str:
        if self.is_clean:
            return (
                f"clean: {self.n_rules} rules, "
                f"families {', '.join(self.families) or 'none'}"
            )
        return (
            f"{self.n_errors} error(s), {self.n_warnings} warning(s) "
            f"from {self.n_rules} rules "
            f"(families {', '.join(self.families) or 'none'})"
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "families": list(self.families),
            "n_rules": self.n_rules,
            "n_errors": self.n_errors,
            "n_warnings": self.n_warnings,
            "clean": self.is_clean,
            "diagnostics": [d.to_dict() for d in self.diagnostics],
        }
