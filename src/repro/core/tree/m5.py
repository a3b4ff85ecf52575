"""The M5Prime estimator: the package's headline model.

Usage::

    model = M5Prime(min_instances=430)
    model.fit(dataset)                 # a repro Dataset, or (X, y, names)
    predictions = model.predict(dataset.X)
    print(model.to_text())             # Figure 2-style tree + LM equations
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro._util import as_float_matrix
from repro.core.tree.builder import TreeBuilder
from repro.core.tree.linear import LinearModel
from repro.core.tree.node import (
    Bounds,
    LeafNode,
    Node,
    SplitNode,
    iter_nodes_with_bounds,
    path_to_leaf,
    route,
)
from repro.core.tree.pruning import prune_tree
from repro.core.tree.render import render_models, render_tree
from repro.core.tree.smoothing import DEFAULT_SMOOTHING_K
from repro.datasets.dataset import Dataset
from repro.datasets.unpack import unpack_training_data
from repro.errors import DataError, NotFittedError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (serve -> core)
    from repro.serve.compiled import CompiledArena


class M5Prime:
    """M5' model tree regressor.

    Args:
        min_instances: Minimum training instances per leaf; the node is
            not split below twice this population.  The paper determined
            430 for its full dataset; scale it with yours.
        sd_fraction: Stop splitting once a node's target spread falls
            below this fraction of the global spread (M5 default 0.05).
        prune: Apply bottom-up post-pruning (paper Section IV-B).
        smoothing: Blend predictions with ancestor models (Quinlan's
            smoothing).  Off by default because the paper's analysis
            reads raw leaf equations.
        smoothing_k: Smoothing constant when ``smoothing`` is on.
        model_attributes: Which attributes node models may use — see
            :class:`repro.core.tree.builder.TreeBuilder`.
        simplify: Greedy term dropping in node models (M5's simplification).
        collinearity_threshold: Drop near-duplicate candidate attributes
            (|correlation| above this) before fitting node models, keeping
            the one most correlated with the target.  Counter sets carry
            metric families that are near-identical (Table I's four DTLB
            metrics); without the filter their coefficients explode in
            opposite directions.  Set to 1.0 to disable (classic M5).
        ridge: Standardized-ridge strength for node models; keeps
            coefficients finite on correlated counters below the
            collinearity threshold.  0 restores exact least squares.
        nonnegative_attributes: Attribute names whose node-model
            coefficients are constrained >= 0 (bounded least squares).
            The physical reading for stall-event metrics: a miss cannot
            make the machine faster.  ``repro.counters.STALL_METRICS``
            lists the Table I events this applies to.
    """

    def __init__(
        self,
        min_instances: int = 4,
        sd_fraction: float = 0.05,
        prune: bool = True,
        smoothing: bool = False,
        smoothing_k: float = DEFAULT_SMOOTHING_K,
        model_attributes: str = "path+subtree",
        simplify: bool = True,
        collinearity_threshold: float = 0.95,
        ridge: float = 1e-4,
        nonnegative_attributes=None,
    ) -> None:
        self.min_instances = min_instances
        self.sd_fraction = sd_fraction
        self.prune = prune
        self.smoothing = smoothing
        self.smoothing_k = smoothing_k
        self.model_attributes = model_attributes
        self.simplify = simplify
        self.collinearity_threshold = collinearity_threshold
        self.ridge = ridge
        self.nonnegative_attributes = nonnegative_attributes
        self.root_: Optional[Node] = None
        self.attributes_: Tuple[str, ...] = ()
        self.target_name_: str = "Y"
        #: Per-attribute training (min, max), recorded at fit time and
        #: persisted with the model so validators can check thresholds and
        #: incoming data against the regime the tree was trained on.
        #: ``None`` for models deserialized from pre-range documents.
        self.feature_ranges_: Optional[Tuple[Tuple[float, float], ...]] = None
        # (root, one-tree CompiledArena) pair; rebuilt whenever root_ is
        # replaced.
        self._compiled_cache: Optional[Tuple[Node, "CompiledArena"]] = None

    # ------------------------------------------------------------------
    def fit(
        self,
        data: Union[Dataset, np.ndarray, Sequence],
        y: Optional[Sequence] = None,
        attribute_names: Optional[Sequence[str]] = None,
    ) -> "M5Prime":
        """Fit on a :class:`Dataset`, or on ``(X, y, attribute_names)``."""
        X, targets, names, target_name = unpack_training_data(
            data, y, attribute_names
        )
        builder = TreeBuilder(
            min_instances=self.min_instances,
            sd_fraction=self.sd_fraction,
            model_attributes=self.model_attributes,
            simplify=self.simplify,
            collinearity_threshold=self.collinearity_threshold,
            ridge=self.ridge,
            nonnegative_attributes=self.nonnegative_attributes,
        )
        root = builder.build(X, targets, names)
        if self.prune:
            root = prune_tree(root)
        self.root_ = root
        self.attributes_ = names
        self.target_name_ = target_name
        self.feature_ranges_ = tuple(
            (float(np.min(column)), float(np.max(column))) for column in X.T
        )
        return self

    def _require_fitted(self) -> Node:
        if self.root_ is None:
            raise NotFittedError("M5Prime must be fitted before use")
        return self.root_

    def _check_width(self, X: np.ndarray) -> None:
        if X.shape[1] != len(self.attributes_):
            raise DataError(
                f"X has {X.shape[1]} columns but the model was trained "
                f"on {len(self.attributes_)}"
            )

    # ------------------------------------------------------------------
    @property
    def compiled_(self) -> "CompiledArena":
        """The fitted tree as a one-tree arena (compiled lazily).

        Compilation is cached per ``root_`` object: refitting, loading,
        or assigning a new tree invalidates it automatically.  Callers
        that mutate nodes *in place* must drop ``_compiled_cache``
        themselves (normal use never does this).
        """
        root = self._require_fitted()
        cached = self._compiled_cache
        if cached is not None and cached[0] is root:
            return cached[1]
        from repro.serve.compiled import compile_tree

        compiled = compile_tree([root], len(self.attributes_))
        self._compiled_cache = (root, compiled)
        return compiled

    def predict(self, X: Union[np.ndarray, Sequence]) -> np.ndarray:
        """Predict targets for an attribute matrix.

        Evaluation runs through the compiled flat-array representation
        (:mod:`repro.serve.compiled`), bit-identical to walking the
        linked tree row by row — including the smoothing path.
        """
        self._require_fitted()
        X = as_float_matrix(X)
        self._check_width(X)
        smoothing_k = self.smoothing_k if self.smoothing else None
        return self.compiled_.predict(X, smoothing_k=smoothing_k)

    def predict_one(self, x: Sequence) -> float:
        """Predict a single instance (1-D attribute vector)."""
        return float(self.predict(np.atleast_2d(np.asarray(x, dtype=float)))[0])

    # ------------------------------------------------------------------
    def leaf_for(self, x: Sequence) -> LeafNode:
        """The leaf (class) an instance falls into."""
        root = self._require_fitted()
        arr = np.asarray(x, dtype=np.float64).ravel()
        if arr.shape[0] != len(self.attributes_):
            raise DataError("instance width does not match training attributes")
        return route(root, arr)

    def decision_path(self, x: Sequence) -> List[Node]:
        """Nodes visited routing ``x`` (root first, leaf last)."""
        root = self._require_fitted()
        arr = np.asarray(x, dtype=np.float64).ravel()
        if arr.shape[0] != len(self.attributes_):
            raise DataError("instance width does not match training attributes")
        return path_to_leaf(root, arr)

    def leaf_ids(self, X: Union[np.ndarray, Sequence]) -> np.ndarray:
        """Leaf (class) id per row of ``X`` (vectorized routing)."""
        self._require_fitted()
        X = as_float_matrix(X)
        self._check_width(X)
        return self.compiled_.leaf_ids(X)

    def leaf_models(self) -> Dict[int, LinearModel]:
        """Leaf id -> linear model, the paper's LM1..LMk."""
        root = self._require_fitted()
        return {leaf.leaf_id: leaf.model for leaf in root.leaves()}  # type: ignore[misc]

    def splits(self) -> List[SplitNode]:
        """All interior (split) nodes, pre-order — the tree's test set."""
        return self._require_fitted().splits()

    def iter_bounds(self):
        """Yield ``(node, bounds)`` pairs over the whole tree.

        ``bounds`` maps attribute index to the feasible ``(low, high)``
        interval implied by the split tests above the node — the metadata
        validators use to detect unreachable branches.  See
        :func:`repro.core.tree.node.iter_nodes_with_bounds`.
        """
        root = self._require_fitted()
        bounds: Bounds = {}
        yield from iter_nodes_with_bounds(root, bounds)

    # ------------------------------------------------------------------
    @property
    def n_leaves(self) -> int:
        return self._require_fitted().n_leaves()

    @property
    def depth(self) -> int:
        return self._require_fitted().depth()

    def to_text(self, max_digits: int = 5) -> str:
        """Figure 2-style rendering: tree structure plus LM equations."""
        root = self._require_fitted()
        return (
            render_tree(root, digits=max_digits)
            + "\n\n"
            + render_models(root, self.target_name_, digits=max_digits)
        )

    def __repr__(self) -> str:
        state = "fitted" if self.root_ is not None else "unfitted"
        return (
            f"M5Prime(min_instances={self.min_instances}, prune={self.prune}, "
            f"smoothing={self.smoothing}, {state})"
        )
