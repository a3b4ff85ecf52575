"""Compiled inference: one flat-array arena for a fitted tree or forest.

``M5Prime.predict`` historically routed one row at a time through the
linked :class:`~repro.core.tree.node.Node` structure — fine for reading
a tree, hopeless for serving it.  :func:`compile_tree` flattens any
number of fitted trees into one :class:`CompiledArena` of contiguous
numpy arrays (split feature/threshold per node, a CSR layout of every
node's linear-model terms) that evaluates whole batches vectorized,
including the smoothing path.  A single M5' tree is the ``n_trees == 1``
arena (``M5Prime.compiled_``); a
:class:`~repro.baselines.bagging.BaggedM5` ensemble is one arena over
all its members (``BaggedM5.compiled_``), which routes all rows through
all trees at once.

Leaf columns are numbered tree-major and pre-order within each tree
(column = ``leaf_offset[t] + local leaf position``), mirroring the
RefinedRandomForest offset bookkeeping (``offsets_ = cumsum(n_leaves)``)
so per-leaf weights stay addressable; a single tree is the one-band
case.  The arena also exposes the leaf-indicator matrix in CSR arrays,
the design matrix :class:`~repro.serve.refine.RefinedForest` regresses
over.

Bit-identity is a hard contract, not an aspiration: every floating-point
operation on a ``(row, tree)`` pair happens in exactly the order the
interpreted walk performs it — routing compares ``x[feature] <= threshold``
with the same operands, leaf models accumulate ``intercept; += coef *
x[index]`` term by term (term order preserved from the
:class:`~repro.core.tree.linear.LinearModel`), and smoothing blends
leaf-to-root with the same ``(n*p + k*q)/(n + k)`` sequence.  So
``predict_trees(X)[t]`` equals tree ``t``'s interpreted walk to the last
bit, and ``predict`` reduces that C-order ``(n_trees, n)`` matrix with
the same ``np.add.reduce`` and division ``.mean(axis=0)`` performs.  The
property tests in ``tests/test_serve_compiled.py`` and
``tests/test_serve_forest.py`` and CONF008 in the conformance harness
assert this, across JSON round trips (Python's shortest-repr float
serialization is exact, so a published model compiles to the same
arrays).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.tree.node import LeafNode, Node, SplitNode
from repro.errors import ConfigError, DataError, ReproError

__all__ = ["CompiledArena", "LeafIndicator", "compile_tree"]


@dataclass(frozen=True)
class LeafIndicator:
    """The arena's leaf-indicator matrix in CSR arrays (no scipy).

    Shape ``(n_rows, n_leaves)``; row ``i`` holds exactly one unit
    entry per tree — ``rows sum to n_trees`` is a structural invariant
    the property tests assert.  Column indices within each row are
    strictly increasing (leaf columns are tree-major), so the arrays are
    canonical CSR.
    """

    indptr: np.ndarray
    indices: np.ndarray
    data: np.ndarray
    shape: Tuple[int, int]

    def toarray(self) -> np.ndarray:
        """Densify (tests and small-batch inspection only)."""
        dense = np.zeros(self.shape)
        rows = np.repeat(
            np.arange(self.shape[0]), np.diff(self.indptr)
        )
        dense[rows, self.indices] = self.data
        return dense


@dataclass(frozen=True)
class CompiledArena:
    """One or more fitted M5' trees flattened to contiguous arrays.

    Nodes are numbered in pre-order, tree after tree: tree ``t`` owns
    nodes ``tree_offset[t]:tree_offset[t+1]`` (its root is the first of
    them) and leaf columns ``leaf_offset[t]:leaf_offset[t+1]``.
    Interior nodes carry a split (``feature[i] >= 0``); leaves have
    ``feature[i] == -1`` and a positive ``leaf_id``.  Every node's
    linear model is stored CSR-style: node ``i``'s terms occupy
    ``term_feature[term_offset[i]:term_offset[i+1]]`` (paired with
    ``term_coefficient``), preserving the term order of the original
    :class:`~repro.core.tree.linear.LinearModel`.

    Attributes:
        n_features: Training attribute count routing validates against.
        n_trees: Number of trees, ``1`` for a single M5' tree.
        feature: Split attribute index per node, ``-1`` at leaves.
        threshold: Split threshold per node (NaN at leaves).
        left, right: Child node indices, ``-1`` at leaves.
        parent: Parent node index, ``-1`` at each tree's root.
        leaf_id: The paper's LM numbering (per tree) at leaves, ``0``
            elsewhere.
        n_instances: Training population per node (smoothing weights).
        has_model: Whether the node carries a linear model.
        intercept: Model intercept per node (NaN where ``has_model`` is
            false).
        term_offset: CSR offsets into the term arrays, length
            ``n_nodes + 1``.
        term_feature: Attribute index of each model term.
        term_coefficient: Slope of each model term.
        tree_offset: Node offset per tree, length ``n_trees + 1``.
        leaf_offset: Leaf-column offset per tree, length ``n_trees + 1``
            (the RefinedRandomForest ``offsets_`` bookkeeping).
        leaf_col: Global leaf column per node (``-1`` at interior nodes).
        leaf_node: Global node index per leaf column (the inverse map).
        max_depth: Deepest tree's root-to-leaf edge count (routing
            iteration bound).
    """

    n_features: int
    n_trees: int
    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    parent: np.ndarray
    leaf_id: np.ndarray
    n_instances: np.ndarray
    has_model: np.ndarray
    intercept: np.ndarray
    term_offset: np.ndarray
    term_feature: np.ndarray
    term_coefficient: np.ndarray
    tree_offset: np.ndarray
    leaf_offset: np.ndarray
    leaf_col: np.ndarray
    leaf_node: np.ndarray
    max_depth: int

    @property
    def n_nodes(self) -> int:
        return int(self.feature.shape[0])

    @property
    def n_leaves(self) -> int:
        """Leaf count over every tree (the number of leaf columns)."""
        return int(self.leaf_node.shape[0])

    #: The same count under the name forest callers know it by.
    total_leaves = n_leaves

    def tree_of(self, node: int) -> int:
        """The tree index owning a global node index."""
        if not 0 <= node < self.n_nodes:
            raise DataError(
                f"node {node} out of range for {self.n_nodes} arena nodes"
            )
        return int(np.searchsorted(self.tree_offset, node, side="right") - 1)

    # ------------------------------------------------------------------
    def _check_width(self, X: np.ndarray) -> None:
        if X.ndim != 2:
            raise DataError(f"X must be 2-dimensional, got shape {X.shape}")
        if X.shape[1] != self.n_features:
            raise DataError(
                f"X has {X.shape[1]} columns but the compiled arena "
                f"expects {self.n_features}"
            )

    def route(self, X: np.ndarray) -> np.ndarray:
        """Global leaf-node index per ``(row, tree)`` pair, shape
        ``(n_rows, n_trees)``.

        One vectorized pass per tree level over the flattened
        ``(row, tree)`` state: every pair still sitting on an interior
        node compares its split attribute against the threshold (``<=``
        goes left, exactly the interpreted rule) and steps down.  Ragged
        trees terminate naturally — finished pairs stay put.
        """
        X = np.asarray(X, dtype=np.float64)
        self._check_width(X)
        nodes = np.empty((X.shape[0], self.n_trees), dtype=np.int64)
        nodes[:] = self.tree_offset[:-1]
        flat = nodes.ravel()
        is_split = self.feature >= 0
        # Only pairs still on an interior node are re-examined each
        # level; settled pairs drop out of the working set instead of
        # being rescanned (ragged trees shrink it quickly).
        at_split = is_split[flat].nonzero()[0]
        for _ in range(self.max_depth):
            if at_split.size == 0:
                break
            current = flat[at_split]
            values = X[at_split // self.n_trees, self.feature[current]]
            go_left = values <= self.threshold[current]
            stepped = np.where(
                go_left, self.left[current], self.right[current]
            )
            flat[at_split] = stepped
            at_split = at_split[is_split[stepped]]
        return nodes

    def leaf_ids(self, X: np.ndarray) -> np.ndarray:
        """The LM (class) number per row of a one-tree arena, shape
        ``(n_rows,)``."""
        if self.n_trees != 1:
            raise DataError(
                f"LM numbers name one tree's leaves but the arena holds "
                f"{self.n_trees} trees; use leaf_columns"
            )
        return self.leaf_id[self.route(X)[:, 0]]

    def leaf_columns(self, X: np.ndarray) -> np.ndarray:
        """Global leaf column per ``(row, tree)``, shape ``(n, n_trees)``."""
        return self.leaf_col[self.route(X)]

    def leaf_indicator(self, X: np.ndarray) -> LeafIndicator:
        """The CSR leaf-indicator matrix for a batch.

        ``indices[indptr[i]:indptr[i+1]]`` are the ``n_trees`` leaf
        columns row ``i`` activates (strictly increasing — columns are
        tree-major), and ``data`` is all ones, so every row sums to
        ``n_trees``.
        """
        columns = self.leaf_columns(X)
        n = columns.shape[0]
        indptr = np.arange(n + 1, dtype=np.int64) * self.n_trees
        return LeafIndicator(
            indptr=indptr,
            indices=columns.ravel().astype(np.int64, copy=False),
            data=np.ones(n * self.n_trees),
            shape=(n, self.n_leaves),
        )

    # ------------------------------------------------------------------
    def _evaluate_node_model(
        self, node: int, X: np.ndarray, rows: np.ndarray
    ) -> np.ndarray:
        """Evaluate one node's linear model over selected rows.

        Accumulates ``intercept; += coef * column`` term by term — the
        same operation sequence as
        :meth:`~repro.core.tree.linear.LinearModel.predict_one`, so the
        result is bit-identical to the scalar walk.
        """
        if not self.has_model[node]:
            raise ReproError(f"compiled node {node} carries no linear model")
        result = np.full(rows.shape[0], self.intercept[node])
        start, stop = self.term_offset[node], self.term_offset[node + 1]
        for position in range(start, stop):
            result += (
                self.term_coefficient[position]
                * X[rows, self.term_feature[position]]
            )
        return result

    def predict_trees(
        self, X: np.ndarray, smoothing_k: Optional[float] = None
    ) -> np.ndarray:
        """Every tree's batch prediction in one pass, shape
        ``(n_trees, n_rows)`` (C-order); pass ``smoothing_k`` for the
        smoothed path.

        ``(row, tree)`` pairs are grouped by destination leaf *across
        the whole arena* — every pair in a group shares one root path —
        so the Python-level loop runs once per distinct leaf reached,
        not once per tree times leaf.  Each group's leaf model is
        evaluated vectorized and, when smoothing, blended with each
        ancestor model walking parent pointers to the root:
        ``p = (n_below * p + k * q) / (n_below + k)``.
        """
        return self._predict_trees(X, smoothing_k)[0]

    def _predict_trees(
        self, X: np.ndarray, smoothing_k: Optional[float]
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`predict_trees` and the :meth:`route` it evaluated."""
        if smoothing_k is not None and smoothing_k < 0:
            raise ConfigError(
                f"smoothing constant k must be non-negative, got {smoothing_k}"
            )
        X = np.asarray(X, dtype=np.float64)
        nodes = self.route(X)
        n = X.shape[0]
        out = np.empty((self.n_trees, n))
        if n == 0:
            return out, nodes
        flat = nodes.ravel()
        # Group (row, tree) pairs by destination leaf via one stable
        # argsort; within each run the positions come out in increasing
        # flat order, exactly as a per-leaf ``flatnonzero`` scan would
        # produce them, so group evaluation order is unchanged.
        order = np.argsort(flat, kind="stable")
        sorted_leaves = flat[order]
        changes = (sorted_leaves[1:] != sorted_leaves[:-1]).nonzero()[0] + 1
        bounds = [0, *changes.tolist(), flat.size]
        all_rows = order // self.n_trees
        all_trees = order % self.n_trees
        for start, stop in zip(bounds[:-1], bounds[1:]):
            leaf = int(sorted_leaves[start])
            rows = all_rows[start:stop]
            trees = all_trees[start:stop]
            if not self.has_model[leaf]:
                raise ReproError(
                    "prediction requires a model at the leaf"
                    if smoothing_k is None
                    else "smoothing requires a model at the leaf"
                )
            group = self._evaluate_node_model(leaf, X, rows)
            if smoothing_k is not None:
                below = leaf
                ancestor = int(self.parent[below])
                while ancestor >= 0:
                    if not self.has_model[ancestor]:
                        raise ReproError(
                            "smoothing requires a model at every ancestor"
                        )
                    blended = self._evaluate_node_model(ancestor, X, rows)
                    weight = float(self.n_instances[below])
                    group = (weight * group + smoothing_k * blended) / (
                        weight + smoothing_k
                    )
                    below = ancestor
                    ancestor = int(self.parent[below])
            out[trees, rows] = group
        return out, nodes

    def predict(
        self, X: np.ndarray, smoothing_k: Optional[float] = None
    ) -> np.ndarray:
        """The mean of :meth:`predict_trees` over trees — a single
        tree's own prediction, or a forest's ensemble mean.

        ``np.add.reduce`` over axis 0 followed by the division by
        ``n_trees`` is exactly the arithmetic ``.mean(axis=0)`` performs,
        so the result is bit-identical to the historical
        ``np.vstack([m.predict(X) for m in members]).mean(axis=0)``
        (and, for one tree, to the interpreted walk), without the
        reduction's dispatch overhead.
        """
        return self.predict_routed(X, smoothing_k=smoothing_k)[0]

    def predict_routed(
        self, X: np.ndarray, smoothing_k: Optional[float] = None
    ) -> Tuple[np.ndarray, np.ndarray]:
        """:meth:`predict` together with the :meth:`route` it evaluated.

        Returns ``(predictions, nodes)``, the ``(n_rows,)`` predictions
        and the ``(n_rows, n_trees)`` leaf-node indices of that one
        route, so a caller that also needs leaf ids reads them from the
        route instead of routing again: ``leaf_id[nodes[:, 0]]`` is
        :meth:`leaf_ids`.
        """
        per_tree, nodes = self._predict_trees(X, smoothing_k)
        return np.add.reduce(per_tree, axis=0) / self.n_trees, nodes

    # ------------------------------------------------------------------
    def leaf_summary(self, column: int) -> Dict[str, Any]:
        """The inspectable linear model behind one global leaf column."""
        if not 0 <= column < self.n_leaves:
            raise DataError(
                f"leaf column {column} out of range for "
                f"{self.n_leaves} leaves"
            )
        node = int(self.leaf_node[column])
        start, stop = int(self.term_offset[node]), int(self.term_offset[node + 1])
        return {
            "column": int(column),
            "tree": self.tree_of(node),
            "node": node,
            "leaf_id": int(self.leaf_id[node]),
            "n_instances": float(self.n_instances[node]),
            "intercept": float(self.intercept[node]),
            "terms": [
                (int(self.term_feature[p]), float(self.term_coefficient[p]))
                for p in range(start, stop)
            ],
        }


def compile_tree(roots: Sequence[Node], n_features: int) -> CompiledArena:
    """Flatten fitted trees, in order, into one :class:`CompiledArena`.

    One pre-order walk over ``roots`` numbers the nodes, so within tree
    ``t`` node ``tree_offset[t] + i`` is the ``i``-th node
    :meth:`Node.iter_nodes` yields — handy when cross-referencing
    compiled results against the linked structure.
    """
    if n_features < 0:
        raise ConfigError(f"n_features must be non-negative, got {n_features}")
    if not roots:
        raise ConfigError("an arena needs at least one tree")
    ordered: List[Node] = []
    offsets = [0]
    for root in roots:
        ordered.extend(root.iter_nodes())
        offsets.append(len(ordered))
    index_of = {id(node): i for i, node in enumerate(ordered)}
    n_nodes = len(ordered)

    feature = np.full(n_nodes, -1, dtype=np.int64)
    threshold = np.full(n_nodes, np.nan)
    left = np.full(n_nodes, -1, dtype=np.int64)
    right = np.full(n_nodes, -1, dtype=np.int64)
    parent = np.full(n_nodes, -1, dtype=np.int64)
    leaf_id = np.zeros(n_nodes, dtype=np.int64)
    leaf_col = np.full(n_nodes, -1, dtype=np.int64)
    leaf_node: List[int] = []
    n_instances = np.zeros(n_nodes)
    has_model = np.zeros(n_nodes, dtype=bool)
    intercept = np.full(n_nodes, np.nan)
    term_offset = np.zeros(n_nodes + 1, dtype=np.int64)
    term_features: List[int] = []
    term_coefficients: List[float] = []

    for i, node in enumerate(ordered):
        n_instances[i] = float(node.n_instances)
        if isinstance(node, SplitNode):
            if not 0 <= node.attribute_index < n_features:
                raise DataError(
                    f"split attribute index {node.attribute_index} is out "
                    f"of range for {n_features} features"
                )
            if not np.isfinite(node.threshold):
                raise DataError(
                    f"split on attribute index {node.attribute_index} has "
                    f"non-finite threshold {node.threshold!r}; NaN "
                    "comparisons are false, so every row would silently "
                    "route right"
                )
            feature[i] = node.attribute_index
            threshold[i] = node.threshold
            left[i] = index_of[id(node.left)]
            right[i] = index_of[id(node.right)]
            parent[left[i]] = i
            parent[right[i]] = i
        elif isinstance(node, LeafNode):
            leaf_id[i] = node.leaf_id
            leaf_col[i] = len(leaf_node)
            leaf_node.append(i)
        else:  # pragma: no cover - Node subclasses are closed
            raise ReproError(f"unknown node type {type(node).__name__}")
        model = node.model
        if model is not None:
            has_model[i] = True
            intercept[i] = model.intercept
            for term_index, coefficient in zip(model.indices, model.coefficients):
                if not 0 <= term_index < n_features:
                    raise DataError(
                        f"model term index {term_index} is out of range "
                        f"for {n_features} features"
                    )
                term_features.append(int(term_index))
                term_coefficients.append(float(coefficient))
        term_offset[i + 1] = len(term_features)

    leaf_nodes = np.asarray(leaf_node, dtype=np.int64)
    tree_offset = np.asarray(offsets, dtype=np.int64)
    return CompiledArena(
        n_features=int(n_features),
        n_trees=len(roots),
        feature=feature,
        threshold=threshold,
        left=left,
        right=right,
        parent=parent,
        leaf_id=leaf_id,
        n_instances=n_instances,
        has_model=has_model,
        intercept=intercept,
        term_offset=term_offset,
        term_feature=np.asarray(term_features, dtype=np.int64),
        term_coefficient=np.asarray(term_coefficients, dtype=np.float64),
        tree_offset=tree_offset,
        # Leaf columns follow node order, so tree t's first column is
        # the number of leaves numbered before its root.
        leaf_offset=np.searchsorted(leaf_nodes, tree_offset).astype(np.int64),
        leaf_col=leaf_col,
        leaf_node=leaf_nodes,
        max_depth=max(root.depth() for root in roots),
    )
