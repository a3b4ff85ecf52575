"""CART-style regression tree: constant predictions at the leaves.

The classical comparator the paper cites ([6], Breiman et al.): same SDR
growth as M5' but a piecewise-*constant* fit, which is exactly what the
paper claims "would not meet the purpose" of quantifying per-event
impacts — and measurably trails M5' in accuracy.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.baselines.base import RegressorBase
from repro.core.tree.linear import adjusted_error
from repro.core.tree.node import LeafNode, Node, SplitNode, assign_leaf_ids, route
from repro.core.tree.splitting import find_best_split, partition_order
from repro.errors import ConfigError, NotFittedError


class RegressionTree(RegressorBase):
    """Binary regression tree with mean-valued leaves.

    Args:
        min_instances: Minimum population per leaf.
        sd_fraction: Stop splitting when node spread falls below this
            fraction of global spread.
        prune: Bottom-up pruning with the same pessimistic error measure
            as M5' (a constant model estimates one parameter).
    """

    def __init__(
        self,
        min_instances: int = 4,
        sd_fraction: float = 0.05,
        prune: bool = True,
    ) -> None:
        super().__init__()
        if min_instances < 1:
            raise ConfigError(f"min_instances must be at least 1, got {min_instances}")
        if not 0.0 <= sd_fraction < 1.0:
            raise ConfigError(f"sd_fraction must lie in [0, 1), got {sd_fraction}")
        self.min_instances = int(min_instances)
        self.sd_fraction = float(sd_fraction)
        self.prune = bool(prune)
        self.root_: Optional[Node] = None

    # ------------------------------------------------------------------
    def _fit(self, X: np.ndarray, y: np.ndarray) -> None:
        self._global_sd = float(np.std(y))
        # Sorted once; each child's order is a stable partition of its
        # parent's, as in TreeBuilder.build.
        order = np.argsort(X.T, axis=1, kind="stable").T
        root = self._grow(X, y, order)
        if self.prune:
            root = self._prune(root)[0]
        assign_leaf_ids(root)
        self.root_ = root

    def _grow(self, X: np.ndarray, y: np.ndarray, order: np.ndarray) -> Node:
        """``order`` is ``np.argsort(X, axis=0, kind="stable")``."""
        n = y.shape[0]
        sd = float(np.std(y))
        mean = float(np.mean(y))
        split = None
        if n >= 2 * self.min_instances and sd > self.sd_fraction * self._global_sd:
            split = find_best_split(X, y, min_leaf=self.min_instances, order=order)
        if split is None:
            return LeafNode(n, sd, mean)
        go_left = X[:, split.attribute_index] <= split.threshold
        left_order, right_order = partition_order(order, go_left)
        return SplitNode(
            n_instances=n,
            sd=sd,
            mean=mean,
            attribute_index=split.attribute_index,
            attribute_name=self.attributes_[split.attribute_index],
            threshold=split.threshold,
            left=self._grow(X[go_left], y[go_left], left_order),
            right=self._grow(X[~go_left], y[~go_left], right_order),
        )

    def _prune(self, node: Node):
        """Collapse subtrees whose constant model is no worse."""
        # For a constant leaf, the training absolute error around the mean
        # approximates sd * sqrt(2/pi) under normality; we use the sd
        # directly as the error proxy, corrected for one parameter.
        node_error = adjusted_error(node.sd, node.n_instances, 1)
        if node.is_leaf:
            node.estimated_error = node_error
            return node, node_error
        assert isinstance(node, SplitNode)
        node.left, left_error = self._prune(node.left)
        node.right, right_error = self._prune(node.right)
        n_left = node.left.n_instances
        n_right = node.right.n_instances
        subtree_error = (n_left * left_error + n_right * right_error) / (
            n_left + n_right
        )
        if node_error <= subtree_error:
            leaf = LeafNode(node.n_instances, node.sd, node.mean)
            leaf.estimated_error = node_error
            return leaf, node_error
        node.estimated_error = subtree_error
        return node, subtree_error

    # ------------------------------------------------------------------
    def _predict(self, X: np.ndarray) -> np.ndarray:
        assert self.root_ is not None
        return np.array([route(self.root_, x).mean for x in X])

    @property
    def n_leaves(self) -> int:
        if self.root_ is None:
            raise NotFittedError("fit the tree before inspecting it")
        return self.root_.n_leaves()

    @property
    def depth(self) -> int:
        if self.root_ is None:
            raise NotFittedError("fit the tree before inspecting it")
        return self.root_.depth()
