"""Tree growing: recursive SDR splitting plus per-node model fitting.

Stopping follows the paper's pre-pruning description: a node is not
split when its population falls below a threshold (the paper determined
430 instances for its dataset) or when its target spread is already a
small fraction of the global spread (the classic M5 5 % rule).

Every node also receives a linear model, because pruning and smoothing
both need one.  Which attributes a node's model may use is a policy:

* ``"subtree"`` — attributes tested below the node (Quinlan's M5);
* ``"path"`` — attributes tested on the way to the node;
* ``"path+subtree"`` — the union (default).  This matches the paper's
  reading of its own leaves: LM17's equation "contain[s] several
  predictors including L2 cache and DTLB misses", which are the split
  variables on LM17's path;
* ``"all"`` — every attribute (WEKA's unrestricted option).
"""

from __future__ import annotations

from typing import FrozenSet, Sequence, Tuple

import numpy as np

from repro.core.tree.linear import (
    _NodeState,
    fit_linear_model,
    resolve_opposed_pairs,
    select_uncorrelated,
    simplify_model,
)
from repro.core.tree.node import LeafNode, Node, SplitNode, assign_leaf_ids
from repro.core.tree.splitting import find_best_split, partition_order
from repro.errors import ConfigError, DataError

MODEL_ATTRIBUTE_POLICIES = ("subtree", "path", "path+subtree", "all")


class TreeBuilder:
    """Grows an (unpruned) model tree from training data."""

    def __init__(
        self,
        min_instances: int = 4,
        sd_fraction: float = 0.05,
        model_attributes: str = "path+subtree",
        simplify: bool = True,
        collinearity_threshold: float = 0.95,
        ridge: float = 1e-4,
        nonnegative_attributes=None,
    ) -> None:
        if min_instances < 1:
            raise ConfigError(f"min_instances must be at least 1, got {min_instances}")
        if not 0.0 <= sd_fraction < 1.0:
            raise ConfigError(f"sd_fraction must lie in [0, 1), got {sd_fraction}")
        if model_attributes not in MODEL_ATTRIBUTE_POLICIES:
            raise ConfigError(
                f"model_attributes must be one of {MODEL_ATTRIBUTE_POLICIES}, "
                f"got {model_attributes!r}"
            )
        if not 0.0 < collinearity_threshold <= 1.0:
            raise ConfigError(
                "collinearity_threshold must lie in (0, 1], got "
                f"{collinearity_threshold}"
            )
        if ridge < 0:
            raise ConfigError(f"ridge must be non-negative, got {ridge}")
        self.min_instances = int(min_instances)
        self.sd_fraction = float(sd_fraction)
        self.model_attributes = model_attributes
        self.simplify = bool(simplify)
        self.collinearity_threshold = float(collinearity_threshold)
        self.ridge = float(ridge)
        self.nonnegative_attributes = (
            tuple(nonnegative_attributes) if nonnegative_attributes else ()
        )

    # ------------------------------------------------------------------
    def build(
        self, X: np.ndarray, y: np.ndarray, attribute_names: Sequence[str]
    ) -> Node:
        """Grow the full tree and fit a model at every node."""
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y, dtype=np.float64)
        if X.shape[0] != y.shape[0]:
            raise DataError("X and y disagree on instance count")
        if X.shape[0] == 0:
            raise DataError("cannot grow a tree on zero instances")
        if X.shape[1] != len(attribute_names):
            raise DataError("attribute_names must match X's column count")
        self._names = tuple(attribute_names)
        unknown = set(self.nonnegative_attributes) - set(self._names)
        if unknown:
            raise DataError(
                f"nonnegative_attributes name unknown attributes: {sorted(unknown)}"
            )
        self._nonnegative_indices = tuple(
            self._names.index(name) for name in self.nonnegative_attributes
        )
        self._global_sd = float(np.std(y))
        # Every column sorted once; each node's order is then a stable
        # partition of its parent's (see splitting.partition_order).
        order = np.argsort(X.T, axis=1, kind="stable").T
        root, _ = self._grow(X, y, frozenset(), order)
        assign_leaf_ids(root)
        return root

    # ------------------------------------------------------------------
    def _grow(
        self,
        X: np.ndarray,
        y: np.ndarray,
        path_attributes: FrozenSet[int],
        order: np.ndarray,
    ) -> Tuple[Node, FrozenSet[int]]:
        """Returns the subtree plus the set of attributes it tests.

        ``order`` is ``np.argsort(X, axis=0, kind="stable")``.
        """
        n = y.shape[0]
        sd = float(np.std(y))
        mean = float(np.mean(y))

        split = None
        if (
            n >= 2 * self.min_instances
            and sd > self.sd_fraction * self._global_sd
        ):
            split = find_best_split(X, y, min_leaf=self.min_instances, order=order)

        if split is None:
            leaf = LeafNode(n, sd, mean)
            leaf.model = self._fit_model(X, y, path_attributes, frozenset())
            return leaf, frozenset()

        go_left = X[:, split.attribute_index] <= split.threshold
        left_order, right_order = partition_order(order, go_left)
        child_path = path_attributes | {split.attribute_index}
        left, left_attrs = self._grow(X[go_left], y[go_left], child_path, left_order)
        right, right_attrs = self._grow(
            X[~go_left], y[~go_left], child_path, right_order
        )
        subtree_attrs = left_attrs | right_attrs | {split.attribute_index}

        node = SplitNode(
            n_instances=n,
            sd=sd,
            mean=mean,
            attribute_index=split.attribute_index,
            attribute_name=self._names[split.attribute_index],
            threshold=split.threshold,
            left=left,
            right=right,
        )
        node.model = self._fit_model(X, y, path_attributes, subtree_attrs)
        return node, subtree_attrs

    # ------------------------------------------------------------------
    def _fit_model(
        self,
        X: np.ndarray,
        y: np.ndarray,
        path_attributes: FrozenSet[int],
        subtree_attributes: FrozenSet[int],
    ):
        if self.model_attributes == "all":
            candidates = frozenset(range(X.shape[1]))
        elif self.model_attributes == "subtree":
            candidates = subtree_attributes
        elif self.model_attributes == "path":
            candidates = path_attributes
        else:  # path+subtree
            candidates = path_attributes | subtree_attributes
        # One state for the node's four calls: column ranges, target
        # moments, centred rows and correlations are computed once.
        state = _NodeState(X, y, self.ridge, self._nonnegative_indices)
        usable = candidates
        if self.collinearity_threshold < 1.0:
            usable = select_uncorrelated(
                X, y, sorted(candidates), self.collinearity_threshold, state=state
            )
        model = fit_linear_model(
            X, y, sorted(usable), self._names, self.ridge,
            self._nonnegative_indices, state=state,
        )
        if self.simplify:
            model = simplify_model(
                X=X,
                y=y,
                model=model,
                attribute_names=self._names,
                ridge=self.ridge,
                nonnegative=self._nonnegative_indices,
                state=state,
            )
        if self.collinearity_threshold < 1.0:
            model = resolve_opposed_pairs(
                model, X, y, self._names, self.ridge,
                nonnegative=self._nonnegative_indices, state=state,
            )
        return model
