"""The PerformanceAnalyzer: full what/how-much reports.

Ties classification, leaf-model contributions and split conditions into
one object — the reproduction of the paper's Section IV-C workflow
("data is collected for the different sections of the workload ...
each section then traverses the tree ... the fractional contribution of
a performance event ... [is] readily available at the leaf nodes").
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Sequence

import numpy as np

from repro._util import format_float
from repro.core.analysis.contribution import EventContribution, leaf_contributions
from repro.core.tree.m5 import M5Prime
from repro.core.tree.node import SplitNode
from repro.datasets.dataset import Dataset
from repro.errors import DataError


@dataclass(frozen=True)
class SplitCondition:
    """One decision on the path to a section's leaf.

    ``high_side`` is True when the section sits above the split point —
    the situation the paper flags as "a source of potential performance
    improvement" for that variable.
    """

    attribute: str
    threshold: float
    high_side: bool

    def describe(self) -> str:
        operator = ">" if self.high_side else "<="
        return f"{self.attribute} {operator} {format_float(self.threshold, 5)}"


@dataclass
class SectionAnalysis:
    """Everything the model says about one section.

    ``extrapolated`` marks sections whose leaf model predicted a
    non-positive target — the section sits outside its class's training
    region, so contribution ratios are undefined and suppressed.
    """

    leaf_id: int
    predicted: float
    conditions: List[SplitCondition]
    contributions: List[EventContribution]
    target_name: str = "CPI"
    extrapolated: bool = False

    @property
    def implicit_issues(self) -> List[str]:
        """Split variables the section is on the high side of ("what")."""
        return [c.attribute for c in self.conditions if c.high_side]

    def top_issues(self, limit: int = 5) -> List[EventContribution]:
        """Highest-cost leaf-model events ("how much"), largest first."""
        positive = [c for c in self.contributions if c.cycles > 0]
        return positive[:limit]

    def render(self) -> str:
        lines = [
            f"class: LM{self.leaf_id}",
            f"predicted {self.target_name}: {self.predicted:.4f}",
        ]
        if self.conditions:
            lines.append("decision path:")
            for condition in self.conditions:
                marker = "  [high]" if condition.high_side else ""
                lines.append(f"  {condition.describe()}{marker}")
        if self.contributions:
            lines.append("event contributions (predicted share of CPI):")
            for contribution in self.contributions:
                lines.append(f"  {contribution.describe()}")
        elif self.extrapolated:
            lines.append(
                "section lies outside its class's training region "
                "(non-positive prediction); contributions suppressed"
            )
        else:
            lines.append(
                "leaf model is constant: performance here is explained "
                "entirely by the decision-path variables above"
            )
        return "\n".join(lines)


class PerformanceAnalyzer:
    """Analyzes sections with a fitted :class:`M5Prime` tree."""

    def __init__(self, model: M5Prime) -> None:
        if model.root_ is None:
            raise DataError("PerformanceAnalyzer requires a fitted model")
        self.model = model

    def analyze_section(self, x: Sequence) -> SectionAnalysis:
        """Classify one section and decompose its predicted CPI."""
        arr = np.asarray(x, dtype=np.float64).ravel()
        path = self.model.decision_path(arr)
        conditions = []
        for node in path[:-1]:
            assert isinstance(node, SplitNode)
            conditions.append(
                SplitCondition(
                    attribute=node.attribute_name,
                    threshold=node.threshold,
                    high_side=bool(arr[node.attribute_index] > node.threshold),
                )
            )
        leaf = path[-1]
        predicted = float(leaf.model.predict_one(arr))  # type: ignore[union-attr]
        extrapolated = predicted <= 0
        contributions: List[EventContribution] = []
        if not extrapolated:
            contributions = leaf_contributions(self.model, arr)
        return SectionAnalysis(
            leaf_id=leaf.leaf_id,
            predicted=predicted,
            conditions=conditions,
            contributions=contributions,
            target_name=self.model.target_name_,
            extrapolated=extrapolated,
        )

    def analyze_dataset(self, dataset: Dataset) -> Dict[int, List[SectionAnalysis]]:
        """Analyze every section, grouped by leaf (class) id."""
        grouped: Dict[int, List[SectionAnalysis]] = {}
        for x in dataset.X:
            analysis = self.analyze_section(x)
            grouped.setdefault(analysis.leaf_id, []).append(analysis)
        return grouped

    def summarize_dataset(self, dataset: Dataset, top: int = 3) -> str:
        """Per-class summary report over a dataset."""
        grouped = self.analyze_dataset(dataset)
        lines = []
        total = dataset.n_instances
        for leaf_id in sorted(grouped):
            sections = grouped[leaf_id]
            mean_predicted = float(np.mean([s.predicted for s in sections]))
            share = 100.0 * len(sections) / total
            lines.append(
                f"LM{leaf_id}: {len(sections)} sections ({share:.1f}%), "
                f"mean predicted {self.model.target_name_} {mean_predicted:.3f}"
            )
            totals: Dict[str, float] = {}
            for section in sections:
                for contribution in section.top_issues(top):
                    totals[contribution.event] = (
                        totals.get(contribution.event, 0.0) + contribution.cycles
                    )
            ranked = sorted(totals.items(), key=lambda kv: kv[1], reverse=True)[:top]
            for event, cycles in ranked:
                lines.append(
                    f"    {event}: mean {cycles / len(sections):.4f} CPI"
                )
        return "\n".join(lines)
