"""The common experiment report structure."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List


@dataclass
class ExperimentReport:
    """Outcome of one paper-artifact reproduction.

    Attributes:
        experiment_id: Registry id (``"F2"``, ``"R1"``, ...).
        title: Human-readable artifact name.
        paper_claim: What the paper reports for this artifact.
        measured: Name -> value pairs measured by this reproduction.
        body: Full text output (tree renderings, tables, scatters).
        checks: Name -> bool shape checks ("root splits on L2M", ...).
    """

    experiment_id: str
    title: str
    paper_claim: str
    measured: Dict[str, str] = field(default_factory=dict)
    body: str = ""
    checks: Dict[str, bool] = field(default_factory=dict)

    @property
    def all_checks_pass(self) -> bool:
        return all(self.checks.values())

    def render(self) -> str:
        lines: List[str] = [
            f"=== {self.experiment_id}: {self.title} ===",
            f"paper: {self.paper_claim}",
        ]
        if self.measured:
            lines.append("measured:")
            for key, value in self.measured.items():
                lines.append(f"  {key}: {value}")
        if self.checks:
            lines.append("shape checks:")
            for key, passed in self.checks.items():
                lines.append(f"  [{'PASS' if passed else 'FAIL'}] {key}")
        if self.body:
            lines.append("")
            lines.append(self.body)
        return "\n".join(lines)

    def render_markdown(self) -> str:
        """One ``##`` section of the ``repro experiments --out`` report."""
        status = "PASS" if self.all_checks_pass else "**FAIL**"
        lines: List[str] = [
            f"## {self.experiment_id}: {self.title} — {status}",
            "",
            f"*Paper:* {self.paper_claim}",
            "",
        ]
        lines.extend(f"* {key}: {value}" for key, value in self.measured.items())
        lines.append("")
        lines.extend(
            f"* [{'x' if passed else ' '}] {key}"
            for key, passed in self.checks.items()
        )
        lines.append("")
        if self.body:
            lines.extend(["```", self.body, "```", ""])
        return "\n".join(lines)
