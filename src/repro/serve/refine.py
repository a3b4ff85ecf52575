"""Refined forests: global leaf re-weighting with prune-and-refit.

A bagged ensemble averages its members with uniform weight ``1/T``.
The RefinedRandomForest idea (see SNIPPETS.md) replaces that uniform
average with a *global* regression: treat every leaf in the forest as a
basis function whose value for a row is the leaf's own linear-model
prediction (and zero when the row lands elsewhere), then solve one
ridge-regularised least-squares problem for a weight per leaf.  Leaves
that the global fit assigns near-zero importance are pruned and the
remaining weights refit — iteratively, ``n_prunings`` times, dropping
the lowest ``prune_pct`` fraction each round.

The refined predictor stays fully inspectable: prediction is
``sum_over_trees(weight[leaf(row, t)] * leaf_model_t(row))``, so every
contribution still traces to one leaf's linear model (exposed via
:meth:`RefinedForest.describe_leaf`) scaled by one published weight.

:meth:`RefinedForest.fit` seeds its candidate set with the uniform
ensemble mean (all weights ``1/T``), evaluates every prune-and-refit
stage on training MAE, and keeps the best — so refinement *never*
increases training MAE relative to the plain forest, a property the
hypothesis suite asserts.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Dict, List, Optional, Tuple, Union

import numpy as np

from repro.errors import ConfigError, DataError, NotFittedError

if TYPE_CHECKING:
    from repro.baselines.bagging import BaggedM5
    from repro.core.dataset import Dataset
    from repro.serve.compiled import CompiledArena

__all__ = ["RefinedWeights", "RefinedForest", "refined_predict"]


@dataclass(frozen=True)
class RefinedWeights:
    """The published outcome of a refinement pass.

    Attributes:
        weights: Per-leaf-column weight, length ``n_leaves``.
            Pruned columns keep their last fitted value but are masked
            by ``active``.
        active: Per-leaf-column liveness mask; pruned leaves contribute
            exactly zero to refined predictions.
        ridge: The L2 regulariser the global fit used.
        prune_pct: Fraction of active leaves dropped per pruning round.
        n_prunings: Rounds requested (the selected candidate may come
            from an earlier round).
        train_mae: Training MAE of the selected candidate.
    """

    weights: np.ndarray
    active: np.ndarray
    ridge: float
    prune_pct: float
    n_prunings: int
    train_mae: float

    @property
    def n_active(self) -> int:
        return int(np.count_nonzero(self.active))


def refined_predict(
    compiled: "CompiledArena",
    refined: RefinedWeights,
    X: np.ndarray,
    smoothing_k: Optional[float] = None,
) -> np.ndarray:
    """Predict with per-leaf weights instead of the uniform mean.

    Each row's prediction is the weighted sum of its ``n_trees`` leaf
    predictions, with pruned leaves contributing zero.  The per-leaf
    predictions come from the same bit-exact ``predict_trees`` pass the
    uniform ensemble uses.
    """
    per_tree = compiled.predict_trees(X, smoothing_k=smoothing_k)
    columns = compiled.leaf_columns(X)
    weights = np.where(refined.active[columns], refined.weights[columns], 0.0)
    return (per_tree.T * weights).sum(axis=1)


def _column_design(
    compiled: "CompiledArena", X: np.ndarray, smoothing_k: Optional[float]
) -> np.ndarray:
    """Dense design matrix: ``Z[i, col]`` = leaf ``col``'s prediction for
    row ``i`` when the row lands there, else zero."""
    per_tree = compiled.predict_trees(X, smoothing_k=smoothing_k)
    columns = compiled.leaf_columns(X)
    n = X.shape[0]
    design = np.zeros((n, compiled.n_leaves))
    design[np.arange(n)[:, None], columns] = per_tree.T
    return design


class RefinedForest:
    """Global ridge re-weighting plus iterative prune-and-refit.

    Args:
        forest: A fitted :class:`~repro.baselines.bagging.BaggedM5`.
        ridge: L2 regulariser for the global leaf regression; must be
            positive (keeps the normal equations well-posed even when a
            leaf column is constant over the training rows).
        prune_pct: Fraction of remaining active leaves pruned each
            round, in ``[0, 1)``.
        n_prunings: Prune-and-refit rounds to evaluate.

    After :meth:`fit`, ``forest.refined_`` holds the selected
    :class:`RefinedWeights` (so ``forest.predict`` serves refined
    outputs) and :attr:`history_` records every candidate stage.
    """

    def __init__(
        self,
        forest: "BaggedM5",
        ridge: float = 1e-3,
        prune_pct: float = 0.1,
        n_prunings: int = 2,
    ) -> None:
        if ridge <= 0:
            raise ConfigError(f"ridge must be positive, got {ridge}")
        if not 0 <= prune_pct < 1:
            raise ConfigError(
                f"prune_pct must be in [0, 1), got {prune_pct}"
            )
        if n_prunings < 0:
            raise ConfigError(
                f"n_prunings must be non-negative, got {n_prunings}"
            )
        if not getattr(forest, "estimators_", ()):
            raise NotFittedError("RefinedForest requires a fitted ensemble")
        self.forest = forest
        self.ridge = float(ridge)
        self.prune_pct = float(prune_pct)
        self.n_prunings = int(n_prunings)
        self.refined_: Optional[RefinedWeights] = None
        self.history_: List[Dict[str, Any]] = []

    def _solve(
        self, design: np.ndarray, y: np.ndarray, active: np.ndarray
    ) -> np.ndarray:
        """Ridge solve over active columns; weights elsewhere are zero."""
        columns = np.flatnonzero(active)
        basis = design[:, columns]
        gram = basis.T @ basis + self.ridge * np.eye(columns.size)
        try:
            solution = np.linalg.solve(gram, basis.T @ y)
        except np.linalg.LinAlgError:
            solution = np.linalg.lstsq(gram, basis.T @ y, rcond=None)[0]
        weights = np.zeros(design.shape[1])
        weights[columns] = solution
        return weights

    def fit(
        self,
        data: Union["Dataset", np.ndarray],
        y: Optional[np.ndarray] = None,
    ) -> "RefinedForest":
        """Run the re-weighting pass and attach the best candidate.

        Accepts a :class:`Dataset` or an ``(X, y)`` pair.  Candidate 0
        is the uniform ensemble mean; each subsequent candidate prunes
        the ``prune_pct`` lowest-importance active leaves (importance =
        ``|weight| * column L2 norm`` over the training design) and
        refits.  The candidate with the lowest training MAE wins, which
        by construction is never worse than the uniform mean.
        """
        from repro.datasets.unpack import unpack_training_data

        X, target, _, _ = unpack_training_data(data, y)
        X = np.asarray(X, dtype=np.float64)
        target = np.asarray(target, dtype=np.float64)
        if X.shape[0] == 0:
            raise DataError("refinement requires at least one training row")

        compiled = self.forest.compiled_
        smoothing_k = (
            self.forest.smoothing_k if self.forest.smoothing else None
        )
        design = _column_design(compiled, X, smoothing_k)
        total = compiled.n_leaves
        n_trees = compiled.n_trees

        def mae(weights: np.ndarray, active: np.ndarray) -> float:
            masked = np.where(active, weights, 0.0)
            predictions = design @ masked
            return float(np.mean(np.abs(predictions - target)))

        candidates: List[Tuple[float, np.ndarray, np.ndarray, str]] = []
        uniform = np.full(total, 1.0 / n_trees)
        all_active = np.ones(total, dtype=bool)
        candidates.append((mae(uniform, all_active), uniform, all_active, "uniform"))

        active = all_active.copy()
        weights = self._solve(design, target, active)
        candidates.append((mae(weights, active), weights, active.copy(), "refit-0"))
        column_norms = np.sqrt((design * design).sum(axis=0))
        for step in range(self.n_prunings):
            live = np.flatnonzero(active)
            n_prune = max(1, int(round(self.prune_pct * live.size)))
            if live.size - n_prune < 1:
                break
            importance = np.abs(weights[live]) * column_norms[live]
            drop = live[np.argsort(importance, kind="stable")[:n_prune]]
            active[drop] = False
            weights = self._solve(design, target, active)
            candidates.append(
                (mae(weights, active), weights, active.copy(), f"refit-{step + 1}")
            )

        best_index = int(np.argmin([c[0] for c in candidates]))
        best_mae, best_weights, best_active, _ = candidates[best_index]
        self.history_ = [
            {
                "stage": stage,
                "n_active": int(np.count_nonzero(cand_active)),
                "train_mae": cand_mae,
                "selected": index == best_index,
            }
            for index, (cand_mae, _, cand_active, stage) in enumerate(candidates)
        ]
        self.refined_ = RefinedWeights(
            weights=best_weights,
            active=best_active,
            ridge=self.ridge,
            prune_pct=self.prune_pct,
            n_prunings=self.n_prunings,
            train_mae=best_mae,
        )
        self.forest.refined_ = self.refined_
        return self

    def describe_leaf(self, column: int) -> Dict[str, Any]:
        """One leaf's full story: its linear model, weight, liveness."""
        if self.refined_ is None:
            raise NotFittedError("refinement has not been fitted")
        summary = self.forest.compiled_.leaf_summary(column)
        attributes = self.forest.attributes_
        summary["terms"] = [
            (attributes[index] if index < len(attributes) else index, value)
            for index, value in summary["terms"]
        ]
        summary["weight"] = float(self.refined_.weights[column])
        summary["active"] = bool(self.refined_.active[column])
        return summary
