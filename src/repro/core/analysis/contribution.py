"""Per-event contribution of leaf-model terms ("how much", explicit part).

The paper's worked example (its LM8, Equation 4): with a predicted CPI of
1.0 and ``L1IM = 0.03``, the L1I term ``6.69 * L1IM`` contributes
``6.69 * 0.03 / 1.0 = 0.20`` — addressing all L1I misses is predicted to
buy ~20 %.  :func:`leaf_contributions` computes exactly that ratio for
every term of the leaf model a section lands in.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

import numpy as np

from repro.core.tree.m5 import M5Prime
from repro.core.tree.node import LeafNode
from repro.errors import DataError


@dataclass(frozen=True)
class EventContribution:
    """One leaf-model term's predicted share of a section's CPI.

    Attributes:
        event: Attribute (metric) name.
        coefficient: Leaf-model slope for the event.
        value: The section's per-instruction event ratio.
        cycles: Predicted CPI attributable to the term (coef * value).
        fraction: ``cycles / predicted_cpi`` — the paper's contribution
            ratio; also the predicted fractional gain from eliminating
            the event entirely.
    """

    event: str
    coefficient: float
    value: float
    cycles: float
    fraction: float

    @property
    def potential_gain_percent(self) -> float:
        """Predicted % CPI improvement from removing all such events."""
        return 100.0 * self.fraction

    def describe(self) -> str:
        return (
            f"{self.event}: {self.coefficient:.4g} * {self.value:.4g} = "
            f"{self.cycles:.4g} CPI ({self.potential_gain_percent:.1f}%)"
        )


def leaf_contributions(model: M5Prime, x: Sequence) -> List[EventContribution]:
    """Contributions of every leaf-model term for one section.

    Sorted by descending contribution, so the head of the list is the
    answer to "what should be optimized first".  Negative-cycle terms
    (events whose coefficient is negative, e.g. correctly predicted
    branches standing in for a favourable mix) sort last.
    """
    arr = np.asarray(x, dtype=np.float64).ravel()
    return contributions_at_leaf(model.leaf_for(arr), arr, model.target_name_)


def contributions_at_leaf(
    leaf: LeafNode, x: Sequence[float], target_name: str
) -> List[EventContribution]:
    """:func:`leaf_contributions` of a row ``x`` already routed to ``leaf``."""
    linear = leaf.model
    if linear is None:
        raise DataError("leaf carries no model")
    predicted = linear.predict_one(x)
    if predicted <= 0:
        raise DataError(
            f"predicted {target_name} is non-positive ({predicted:.4g}); "
            "contributions are undefined"
        )
    contributions = []
    for name, index, coefficient in zip(
        linear.names, linear.indices, linear.coefficients
    ):
        value = float(x[index])
        cycles = coefficient * value
        contributions.append(
            EventContribution(
                event=name,
                coefficient=float(coefficient),
                value=value,
                cycles=float(cycles),
                fraction=float(cycles / predicted),
            )
        )
    contributions.sort(key=lambda c: c.cycles, reverse=True)
    return contributions


def rank_events(model: M5Prime, X: Sequence) -> List[EventContribution]:
    """Average contributions over many sections (e.g. a whole workload).

    Sections are weighted equally; the result ranks events by their mean
    predicted CPI cost across ``X``, answering "what" at workload scope.
    """
    X = np.atleast_2d(np.asarray(X, dtype=np.float64))
    if X.shape[0] == 0:
        raise DataError("need at least one section to rank events")
    totals: dict = {}
    for x in X:
        for contribution in leaf_contributions(model, x):
            record = totals.setdefault(
                contribution.event, {"cycles": 0.0, "value": 0.0, "coef": 0.0, "n": 0}
            )
            record["cycles"] += contribution.cycles
            record["value"] += contribution.value
            record["coef"] += contribution.coefficient
            record["n"] += 1
    mean_predicted = float(np.mean(model.predict(X)))
    ranked = []
    n_sections = X.shape[0]
    for event, record in totals.items():
        mean_cycles = record["cycles"] / n_sections
        ranked.append(
            EventContribution(
                event=event,
                coefficient=record["coef"] / record["n"],
                value=record["value"] / n_sections,
                cycles=mean_cycles,
                fraction=mean_cycles / mean_predicted if mean_predicted > 0 else 0.0,
            )
        )
    ranked.sort(key=lambda c: c.cycles, reverse=True)
    return ranked
