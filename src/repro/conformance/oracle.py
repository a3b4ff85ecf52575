"""Deliberately naive reference implementations (the oracles).

Four optimized paths are checked against straight-line transcriptions
here: M5' fitting (:class:`ReferenceM5Prime`, most of this module), its
node models (the ``reference_*`` node-model functions), trace replay
(:func:`reference_run_block`) and the collection steps around it
(:func:`reference_prewarm`, :func:`reference_perturbed` and the
``np.convolve`` ROB window of :class:`ReferenceCycleAccounting`, at the
end).

Every optimized M5' execution path in this package — the chunked vectorized
split scan (:mod:`repro.core.tree.splitting`), the per-call node state of
the node-model primitives (:mod:`repro.core.tree.linear`), the compiled
flat-array inference (:mod:`repro.serve.compiled`), parallel
cross-validation folds, cached artifacts, JSON round trips — promises to
compute *exactly* the Quinlan/Wang–Witten M5' algorithm.  This module is
the other side of that promise: a straight-line, textbook transcription
of the algorithm with no vectorized split scan, no shared node state, no
compiled arrays, no caching — just recursion, running sums, a refit per
candidate and per-row tree walks.  The differential runner
(:mod:`repro.conformance.differential`) fits both implementations on the
same data and asserts bit-identical trees and predictions.

Being *naive* is the point: an exhaustive per-attribute, per-boundary
loop is slow but easy to audit against the paper's description.  Three
deliberate exceptions keep the oracle honest about what it checks:

* Node/leaf containers reuse :class:`~repro.core.tree.node.LeafNode` and
  :class:`~repro.core.tree.node.SplitNode` — they are dumb structs with
  no algorithmic content, and sharing them makes tree comparison and
  serialization checks trivial.
* Node-model *solves* are shared: the LAPACK least-squares and ridge
  solves (``np.linalg``) and the bounded scipy solve
  (:func:`repro.core.tree.linear._bounded_fit`), which no independent
  reimplementation could match bit for bit.  The orchestration around
  them — the constant-column filter, the correlation ranking of the
  collinearity filter, greedy term dropping and opposed-pair
  resolution — is transcribed here and is under test.  The metamorphic
  suite (:mod:`repro.conformance.metamorphic`) covers the solves from
  the outside.
* Scalar reductions call ``np.std`` / ``np.mean`` — numpy primitives,
  not repo code.

Bit-identity requires matching the *operation order* of the production
SDR scan, so the running-sum accumulation below mirrors ``np.cumsum``
(strictly sequential left-to-right addition) and the variance is taken
as ``E[y^2] - E[y]^2`` exactly as the vectorized scan computes it.
"""

from __future__ import annotations

import dataclasses
import math
from collections import deque
from typing import Deque, Dict, FrozenSet, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro._util import RandomState, check_random_state
from repro.core.tree.builder import MODEL_ATTRIBUTE_POLICIES
from repro.core.tree.linear import LinearModel, _bounded_fit
from repro.core.tree.node import LeafNode, Node, SplitNode
from repro.core.tree.smoothing import DEFAULT_SMOOTHING_K
from repro.datasets.dataset import Dataset
from repro.datasets.unpack import unpack_training_data
from repro.errors import ConfigError, DataError, NotFittedError
from repro.simulator.config import MachineConfig
from repro.simulator.core import BlockResult, SimulatedCore
from repro.simulator.isa import (
    CODE_REGION_BASE,
    KIND_BRANCH,
    KIND_LOAD,
    KIND_STORE,
    InstructionBlock,
)
from repro.simulator.memdep import (
    BLOCK_OVERLAP,
    BLOCK_STA,
    BLOCK_STD,
    GRANULE_SHIFT,
    NO_BLOCK,
)
from repro.simulator.pipeline import CycleAccounting, SectionEvents
from repro.workloads.phases import _JITTERED_FIELDS, PhaseParams
from repro.workloads.suite import _PREWARM_FILL

#: The production tie-break margin: a later attribute replaces the
#: incumbent best split only when its SDR exceeds it by more than this.
SDR_TIE_MARGIN = 1e-15

#: Pessimistic multiplier for saturated models (n <= parameters); the
#: same constant the production pruning applies via
#: :func:`repro.core.tree.linear.adjusted_error`.
SATURATED_PENALTY = 10.0


class ReferenceM5Prime:
    """Textbook M5' fitted with exhaustive loops — the conformance oracle.

    Accepts the same constructor parameters as
    :class:`~repro.core.tree.m5.M5Prime` and produces a tree of the same
    node containers, so the two can be compared field by field.
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
        if min_instances < 1:
            raise ConfigError(f"min_instances must be at least 1, got {min_instances}")
        if not 0.0 <= sd_fraction < 1.0:
            raise ConfigError(f"sd_fraction must lie in [0, 1), got {sd_fraction}")
        if model_attributes not in MODEL_ATTRIBUTE_POLICIES:
            raise ConfigError(
                f"model_attributes must be one of {MODEL_ATTRIBUTE_POLICIES}, "
                f"got {model_attributes!r}"
            )
        self.min_instances = int(min_instances)
        self.sd_fraction = float(sd_fraction)
        self.prune = bool(prune)
        self.smoothing = bool(smoothing)
        self.smoothing_k = float(smoothing_k)
        self.model_attributes = model_attributes
        self.simplify = bool(simplify)
        self.collinearity_threshold = float(collinearity_threshold)
        self.ridge = float(ridge)
        self.nonnegative_attributes = (
            tuple(nonnegative_attributes) if nonnegative_attributes else ()
        )
        self.root_: Optional[Node] = None
        self.attributes_: Tuple[str, ...] = ()
        self.target_name_: str = "Y"
        self.feature_ranges_: Optional[Tuple[Tuple[float, float], ...]] = None

    # ------------------------------------------------------------------
    # Fitting
    # ------------------------------------------------------------------
    def fit(
        self,
        data: Union[Dataset, np.ndarray, Sequence],
        y: Optional[Sequence] = None,
        attribute_names: Optional[Sequence[str]] = None,
    ) -> "ReferenceM5Prime":
        X, targets, names, target_name = unpack_training_data(
            data, y, attribute_names
        )
        X = np.asarray(X, dtype=np.float64)
        targets = np.asarray(targets, dtype=np.float64)
        if X.shape[0] != targets.shape[0]:
            raise DataError("X and y disagree on instance count")
        if X.shape[0] == 0:
            raise DataError("cannot grow a tree on zero instances")
        self._names = tuple(names)
        unknown = set(self.nonnegative_attributes) - set(self._names)
        if unknown:
            raise DataError(
                f"nonnegative_attributes name unknown attributes: {sorted(unknown)}"
            )
        self._nonnegative_indices = tuple(
            self._names.index(name) for name in self.nonnegative_attributes
        )
        self._global_sd = float(np.std(targets))
        root = self._grow(X, targets, frozenset())[0]
        if self.prune:
            root = self._prune(root)[0]
        _assign_leaf_ids(root)
        self.root_ = root
        self.attributes_ = self._names
        self.target_name_ = target_name
        self.feature_ranges_ = tuple(
            (float(np.min(column)), float(np.max(column))) for column in X.T
        )
        return self

    def _grow(
        self, X: np.ndarray, y: np.ndarray, path_attributes: FrozenSet[int]
    ) -> Tuple[Node, FrozenSet[int]]:
        n = y.shape[0]
        sd = float(np.std(y))
        mean = float(np.mean(y))

        split = None
        if n >= 2 * self.min_instances and sd > self.sd_fraction * self._global_sd:
            split = _exhaustive_best_split(X, y, self.min_instances)

        if split is None:
            leaf = LeafNode(n, sd, mean)
            leaf.model = self._fit_model(X, y, path_attributes, frozenset())
            return leaf, frozenset()

        attribute_index, threshold = split
        go_left = X[:, attribute_index] <= threshold
        child_path = path_attributes | {attribute_index}
        left, left_attrs = self._grow(X[go_left], y[go_left], child_path)
        right, right_attrs = self._grow(X[~go_left], y[~go_left], child_path)
        subtree_attrs = left_attrs | right_attrs | {attribute_index}
        node = SplitNode(
            n_instances=n,
            sd=sd,
            mean=mean,
            attribute_index=attribute_index,
            attribute_name=self._names[attribute_index],
            threshold=threshold,
            left=left,
            right=right,
        )
        node.model = self._fit_model(X, y, path_attributes, subtree_attrs)
        return node, subtree_attrs

    def _fit_model(
        self,
        X: np.ndarray,
        y: np.ndarray,
        path_attributes: FrozenSet[int],
        subtree_attributes: FrozenSet[int],
    ) -> LinearModel:
        # Candidate policy transcription; the node-model steps are the
        # straight-line references below.
        if self.model_attributes == "all":
            candidates: FrozenSet[int] = frozenset(range(X.shape[1]))
        elif self.model_attributes == "subtree":
            candidates = subtree_attributes
        elif self.model_attributes == "path":
            candidates = path_attributes
        else:
            candidates = path_attributes | subtree_attributes
        usable: Sequence[int] = sorted(candidates)
        if self.collinearity_threshold < 1.0:
            usable = reference_select_uncorrelated(
                X, y, sorted(candidates), self.collinearity_threshold
            )
        model = reference_fit_linear_model(
            X, y, sorted(usable), self._names, self.ridge,
            self._nonnegative_indices,
        )
        if self.simplify:
            model = reference_simplify_model(
                X=X, y=y, model=model, attribute_names=self._names,
                ridge=self.ridge, nonnegative=self._nonnegative_indices,
            )
        if self.collinearity_threshold < 1.0:
            model = reference_resolve_opposed_pairs(
                model, X, y, self._names, self.ridge,
                nonnegative=self._nonnegative_indices,
            )
        return model

    def _prune(self, node: Node) -> Tuple[Node, float]:
        """Textbook bottom-up pruning: collapse when the node's own model
        is pessimistically no worse than its children combined."""
        model = node.model
        assert model is not None
        if node.is_leaf:
            node.estimated_error = _pessimistic_error(model)
            return node, node.estimated_error
        assert isinstance(node, SplitNode)
        node.left, left_error = self._prune(node.left)
        node.right, right_error = self._prune(node.right)
        n_left = node.left.n_instances
        n_right = node.right.n_instances
        subtree_error = (n_left * left_error + n_right * right_error) / (
            n_left + n_right
        )
        model_error = _pessimistic_error(model)
        if model_error <= subtree_error:
            leaf = LeafNode(node.n_instances, node.sd, node.mean)
            leaf.model = model
            leaf.estimated_error = model_error
            return leaf, model_error
        node.estimated_error = subtree_error
        return node, subtree_error

    # ------------------------------------------------------------------
    # Prediction (plain per-row walks; no compiled arrays)
    # ------------------------------------------------------------------
    def _require_fitted(self) -> Node:
        if self.root_ is None:
            raise NotFittedError("ReferenceM5Prime must be fitted before use")
        return self.root_

    def predict(self, X: Union[np.ndarray, Sequence]) -> np.ndarray:
        root = self._require_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        if X.shape[1] != len(self.attributes_):
            raise DataError(
                f"X has {X.shape[1]} columns but the oracle was trained "
                f"on {len(self.attributes_)}"
            )
        out = np.empty(X.shape[0], dtype=np.float64)
        for i in range(X.shape[0]):
            out[i] = self._predict_row(root, X[i])
        return out

    def _predict_row(self, root: Node, x: np.ndarray) -> float:
        path: List[Node] = [root]
        node = root
        while isinstance(node, SplitNode):
            node = node.left if x[node.attribute_index] <= node.threshold else node.right
            path.append(node)
        leaf_model = node.model
        assert leaf_model is not None
        prediction = _evaluate_model(leaf_model, x)
        if not self.smoothing:
            return prediction
        k = self.smoothing_k
        for position in range(len(path) - 2, -1, -1):
            ancestor = path[position]
            below = path[position + 1]
            assert ancestor.model is not None
            ancestor_prediction = _evaluate_model(ancestor.model, x)
            prediction = (
                below.n_instances * prediction + k * ancestor_prediction
            ) / (below.n_instances + k)
        return float(prediction)

    def leaf_ids(self, X: Union[np.ndarray, Sequence]) -> np.ndarray:
        root = self._require_fitted()
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        out = np.empty(X.shape[0], dtype=np.int64)
        for i in range(X.shape[0]):
            node = root
            while isinstance(node, SplitNode):
                if X[i, node.attribute_index] <= node.threshold:
                    node = node.left
                else:
                    node = node.right
            out[i] = node.leaf_id
        return out

    @property
    def n_leaves(self) -> int:
        return self._require_fitted().n_leaves()


# ----------------------------------------------------------------------
# The exhaustive SDR split search
# ----------------------------------------------------------------------
def _exhaustive_best_split(
    X: np.ndarray, y: np.ndarray, min_leaf: int
) -> Optional[Tuple[int, float]]:
    """Scan every attribute and boundary for the SDR-maximizing split.

    Running sums accumulate strictly left-to-right (the order
    ``np.cumsum`` uses) and the child variance is ``E[y^2] - E[y]^2``,
    clamped at zero — the exact arithmetic of the vectorized scan, one
    candidate at a time.  Ties resolve to the lowest attribute index and
    then the lowest threshold, via the same strict ``+ 1e-15`` margin.
    """
    n = y.shape[0]
    if n < 2 * min_leaf:
        return None
    sd_total = float(np.std(y))
    if sd_total <= 0.0:
        return None

    best_sdr: Optional[float] = None
    best: Optional[Tuple[int, float]] = None
    for attribute_index in range(X.shape[1]):
        column = X[:, attribute_index]
        order = np.argsort(column, kind="stable")
        xs = column[order]
        ys = y[order]
        candidate = _best_boundary(xs, ys, min_leaf, sd_total)
        if candidate is None:
            continue
        candidate_sdr, threshold = candidate
        if best_sdr is None or candidate_sdr > best_sdr + SDR_TIE_MARGIN:
            best_sdr = candidate_sdr
            best = (attribute_index, threshold)
    return best


def _best_boundary(
    xs: np.ndarray, ys: np.ndarray, min_leaf: int, sd_total: float
) -> Optional[Tuple[float, float]]:
    """Best (sdr, threshold) over one sorted column, or ``None``."""
    n = ys.shape[0]
    total_sum = 0.0
    total_sumsq = 0.0
    for value in ys:
        total_sum += float(value)
        total_sumsq += float(value) * float(value)

    best_sdr = -math.inf
    best_index: Optional[int] = None
    running_sum = 0.0
    running_sumsq = 0.0
    for i in range(n - min_leaf):
        value = float(ys[i])
        running_sum += value
        running_sumsq += value * value
        boundary = i  # split between sorted positions i and i + 1
        if boundary < min_leaf - 1:
            continue
        if not xs[boundary] < xs[boundary + 1]:
            continue  # no threshold separates equal values
        n_left = float(boundary + 1)
        n_right = n - n_left
        sum_left = running_sum
        sum_right = total_sum - sum_left
        sumsq_left = running_sumsq
        sumsq_right = total_sumsq - sumsq_left
        var_left = max(sumsq_left / n_left - (sum_left / n_left) ** 2, 0.0)
        var_right = max(sumsq_right / n_right - (sum_right / n_right) ** 2, 0.0)
        weighted_sd = (
            n_left * math.sqrt(var_left) + n_right * math.sqrt(var_right)
        ) / n
        sdr = sd_total - weighted_sd
        if sdr > best_sdr:
            best_sdr = sdr
            best_index = boundary
    if best_index is None or best_sdr <= 0.0:
        return None
    threshold = float((xs[best_index] + xs[best_index + 1]) / 2.0)
    if not threshold < xs[best_index + 1]:
        # Adjacent floats whose midpoint rounds up: cut at the left value
        # so the split actually separates the children.
        threshold = float(xs[best_index])
    return best_sdr, threshold


def _pessimistic_error(model: LinearModel) -> float:
    """M5's (n + v) / (n - v) pessimistic error, transcribed."""
    n = model.n_training
    v = model.n_parameters
    if n <= 0:
        return math.inf
    if n <= v:
        return model.training_error * SATURATED_PENALTY
    return model.training_error * (n + v) / (n - v)


def _evaluate_model(model: LinearModel, x: np.ndarray) -> float:
    """Evaluate a node model term by term, in stored term order."""
    value = model.intercept
    for index, coefficient in zip(model.indices, model.coefficients):
        value += coefficient * x[index]
    return float(value)


def _assign_leaf_ids(root: Node) -> int:
    """Pre-order left-to-right leaf numbering from 1 (LM1..LMk)."""
    counter = 0
    stack = [root]
    while stack:
        node = stack.pop()
        if isinstance(node, SplitNode):
            node.leaf_id = 0
            stack.append(node.right)
            stack.append(node.left)
        else:
            counter += 1
            node.leaf_id = counter
    return counter


# ----------------------------------------------------------------------
# Node-model oracle
#
# Each public primitive in :mod:`repro.core.tree.linear` works on one
# per-call node state that computes column ranges, target moments and
# correlations once and compares candidates on their raw solves.  The
# functions below recompute every refit and correlation from the raw
# columns and build a LinearModel per candidate.  Production must match
# them bit for bit.


def reference_select_uncorrelated(
    X: np.ndarray,
    y: np.ndarray,
    candidate_indices: Sequence[int],
    threshold: float = 0.95,
) -> List[int]:
    """Reference for :func:`repro.core.tree.linear.select_uncorrelated`."""
    if not 0.0 < threshold <= 1.0:
        raise ConfigError(f"threshold must lie in (0, 1], got {threshold}")

    def correlation(a: np.ndarray, b: np.ndarray) -> float:
        if np.ptp(a) <= 1e-15 or np.ptp(b) <= 1e-15:
            return 0.0
        return float(np.corrcoef(a, b)[0, 1])

    ranked = sorted(
        candidate_indices, key=lambda j: -abs(correlation(X[:, j], y))
    )
    kept: List[int] = []
    for index in ranked:
        if all(
            abs(correlation(X[:, index], X[:, other])) <= threshold
            for other in kept
        ):
            kept.append(index)
    return sorted(kept)


def reference_fit_linear_model(
    X: np.ndarray,
    y: np.ndarray,
    candidate_indices: Sequence[int],
    attribute_names: Sequence[str],
    ridge: float = 0.0,
    nonnegative: Sequence[int] = (),
) -> LinearModel:
    """Reference for :func:`repro.core.tree.linear.fit_linear_model`."""
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    n = y.shape[0]
    if n == 0:
        raise DataError("cannot fit a linear model on zero instances")
    if ridge < 0:
        raise ConfigError(f"ridge must be non-negative, got {ridge}")

    # Drop candidates with (numerically) constant columns: they are
    # indistinguishable from the intercept.
    usable: List[int] = []
    for index in candidate_indices:
        column = X[:, index]
        if np.ptp(column) > 1e-12:
            usable.append(index)
    # Avoid saturated systems outright.
    max_terms = max(n - 1, 0)
    usable = usable[:max_terms]

    if not usable:
        mean = float(np.mean(y))
        return LinearModel(
            intercept=mean,
            indices=(),
            names=(),
            coefficients=(),
            n_training=n,
            training_error=float(np.mean(np.abs(y - mean))),
        )

    columns = X[:, usable]
    constrained = [position for position, idx in enumerate(usable) if idx in set(nonnegative)]
    if constrained:
        coefficients, intercept = _bounded_fit(columns, y, constrained, ridge)
        residual = y - (columns @ coefficients + intercept)
    elif ridge > 0:
        # Center, penalize standardized coefficients, back-transform.
        column_means = columns.mean(axis=0)
        y_mean = float(y.mean())
        centered = columns - column_means
        scales = np.maximum(centered.std(axis=0), 1e-12)
        gram = centered.T @ centered + ridge * n * np.diag(scales**2)
        coefficients = np.linalg.solve(gram, centered.T @ (y - y_mean))
        intercept = y_mean - float(coefficients @ column_means)
        residual = y - (columns @ coefficients + intercept)
    else:
        design = np.column_stack([columns, np.ones(n)])
        solution, *_ = np.linalg.lstsq(design, y, rcond=None)
        coefficients = solution[:-1]
        intercept = float(solution[-1])
        residual = y - design @ solution
    training_error = float(np.mean(np.abs(residual)))
    return LinearModel(
        intercept=intercept,
        indices=tuple(int(i) for i in usable),
        names=tuple(attribute_names[i] for i in usable),
        coefficients=tuple(float(c) for c in coefficients),
        n_training=n,
        training_error=training_error,
    )


def reference_resolve_opposed_pairs(
    model: LinearModel,
    X: np.ndarray,
    y: np.ndarray,
    attribute_names: Sequence[str],
    ridge: float = 0.0,
    corr_threshold: float = 0.75,
    nonnegative: Sequence[int] = (),
) -> LinearModel:
    """Reference for :func:`repro.core.tree.linear.resolve_opposed_pairs`."""
    current = model
    while True:
        offender = _reference_find_opposed_pair(current, X, y, corr_threshold)
        if offender is None:
            return current
        remaining = [i for i in current.indices if i != offender]
        current = reference_fit_linear_model(
            X, y, remaining, attribute_names, ridge, nonnegative
        )


def _reference_find_opposed_pair(
    model: LinearModel, X: np.ndarray, y: np.ndarray, corr_threshold: float
):
    """The index to drop from the worst opposed pair, or None."""

    def correlation(a: np.ndarray, b: np.ndarray) -> float:
        if np.ptp(a) <= 1e-15 or np.ptp(b) <= 1e-15:
            return 0.0
        return float(np.corrcoef(a, b)[0, 1])

    for position_a in range(len(model.indices)):
        for position_b in range(position_a + 1, len(model.indices)):
            coef_a = model.coefficients[position_a]
            coef_b = model.coefficients[position_b]
            if coef_a * coef_b >= 0:
                continue
            index_a = model.indices[position_a]
            index_b = model.indices[position_b]
            if abs(correlation(X[:, index_a], X[:, index_b])) <= corr_threshold:
                continue
            keep_a = abs(correlation(X[:, index_a], y)) >= abs(
                correlation(X[:, index_b], y)
            )
            return index_b if keep_a else index_a
    return None


def reference_simplify_model(
    model: LinearModel,
    X: np.ndarray,
    y: np.ndarray,
    attribute_names: Sequence[str],
    ridge: float = 0.0,
    nonnegative: Sequence[int] = (),
) -> LinearModel:
    """Reference for :func:`repro.core.tree.linear.simplify_model`."""
    current = model
    current_error = current.adjusted_error()
    while current.coefficients:
        best_candidate: Optional[LinearModel] = None
        best_error = current_error
        for drop_position in range(len(current.indices)):
            remaining = [
                idx
                for position, idx in enumerate(current.indices)
                if position != drop_position
            ]
            candidate = reference_fit_linear_model(
                X, y, remaining, attribute_names, ridge, nonnegative
            )
            candidate_error = candidate.adjusted_error()
            if candidate_error <= best_error + 1e-12:
                best_candidate = candidate
                best_error = candidate_error
        if best_candidate is None:
            break
        current = best_candidate
        current_error = best_error
    return current


# ----------------------------------------------------------------------
# Trace replay oracle
#
# The simulated core replays a block as separate passes over the
# structures that do not share state (see
# :meth:`repro.simulator.core.SimulatedCore.run_block`).  The oracle
# below is the straight per-instruction loop that visits every structure
# for every instruction in program order, with a store buffer that keeps
# one dict entry per 8-byte granule and expires them through a FIFO.
# The production replay must match it bit for bit.


_StoreRecord = Tuple[int, int, int, bool, bool]  # (seq, addr, size, sta, std)


class ReferenceStoreBuffer:
    """The per-granule dict/FIFO store buffer, driven one instruction at a time."""

    __slots__ = ("window", "_granules", "_fifo", "_seq")

    def __init__(self, window: int = 32) -> None:
        self.window = int(window)
        self._granules: Dict[int, _StoreRecord] = {}
        self._fifo: Deque[Tuple[int, int]] = deque()  # (granule, seq)
        self._seq = 0

    def _expire(self) -> None:
        horizon = self._seq - self.window
        fifo = self._fifo
        granules = self._granules
        while fifo and fifo[0][1] < horizon:
            granule, seq = fifo.popleft()
            record = granules.get(granule)
            if record is not None and record[0] == seq:
                del granules[granule]

    def push_store(self, addr: int, size: int, sta: bool, std: bool) -> None:
        """Record a store; newer stores shadow older ones per granule."""
        self._seq += 1
        self._expire()
        record = (self._seq, addr, size, sta, std)
        first = addr >> GRANULE_SHIFT
        last = (addr + max(size, 1) - 1) >> GRANULE_SHIFT
        for granule in range(first, last + 1):
            self._granules[granule] = record
            self._fifo.append((granule, self._seq))

    def check_load(self, addr: int, size: int) -> int:
        """Classify a load against in-flight stores; advances time.

        Returns one of ``NO_BLOCK``, ``BLOCK_STA``, ``BLOCK_STD``,
        ``BLOCK_OVERLAP``.
        """
        self._seq += 1
        self._expire()
        record = self._find(addr, size)
        if record is None:
            return NO_BLOCK
        _, store_addr, store_size, sta, std = record
        if sta:
            return BLOCK_STA
        covered = store_addr <= addr and store_addr + store_size >= addr + size
        if not covered:
            return BLOCK_OVERLAP
        if std:
            return BLOCK_STD
        return NO_BLOCK

    def _find(self, addr: int, size: int) -> Optional[_StoreRecord]:
        first = addr >> GRANULE_SHIFT
        last = (addr + max(size, 1) - 1) >> GRANULE_SHIFT
        newest: Optional[_StoreRecord] = None
        for granule in range(first, last + 1):
            record = self._granules.get(granule)
            if record is not None and (newest is None or record[0] > newest[0]):
                newest = record
        return newest

    def advance(self, instructions: int = 1) -> None:
        """Advance time for non-memory instructions (ages the window)."""
        self._seq += instructions
        self._expire()

    def clear(self) -> None:
        self._granules.clear()
        self._fifo.clear()

    @property
    def occupancy(self) -> int:
        """Distinct granules currently tracked (post-expiry)."""
        self._expire()
        return len(self._granules)


def reference_core(
    config: Optional[MachineConfig] = None, rng: RandomState = None
) -> SimulatedCore:
    """A :class:`SimulatedCore` carrying the reference store buffer and accounting.

    Drive it with :func:`reference_run_block` only: the production
    replay needs the block-level store buffer.
    """
    core = SimulatedCore(config, rng=rng)
    core.store_buffer = ReferenceStoreBuffer(core.config.store_buffer_window)
    core.accounting = ReferenceCycleAccounting(core.config)
    return core


def reference_run_block(core: SimulatedCore, block: InstructionBlock) -> BlockResult:
    """Replay ``block`` on ``core`` one instruction at a time, in program order.

    ``core`` should come from :func:`reference_core`.  State carries over
    between calls exactly as with :meth:`SimulatedCore.run_block`.
    """
    n = len(block)
    line_bytes = core.config.l1d.line_bytes
    fetch_line_bytes = core.config.l1i.line_bytes

    l1dm = np.zeros(n, dtype=bool)
    l2m = np.zeros(n, dtype=bool)
    store_l1m = np.zeros(n, dtype=bool)
    store_l2m = np.zeros(n, dtype=bool)
    l1im = np.zeros(n, dtype=bool)
    l2im = np.zeros(n, dtype=bool)
    itlbm = np.zeros(n, dtype=bool)
    dtlb0_ld = np.zeros(n, dtype=bool)
    dtlb_walk_ld = np.zeros(n, dtype=bool)
    dtlb_walk_st = np.zeros(n, dtype=bool)
    mispred = np.zeros(n, dtype=bool)
    ldbl_sta = np.zeros(n, dtype=bool)
    ldbl_std = np.zeros(n, dtype=bool)
    ldbl_ov = np.zeros(n, dtype=bool)

    misal = block.misaligned_mask()
    split = block.split_mask(line_bytes)
    is_load = block.kind == KIND_LOAD
    is_store = block.kind == KIND_STORE
    is_branch = block.kind == KIND_BRANCH
    split_ld = split & is_load
    split_st = split & is_store

    # Local bindings keep the hot loop free of attribute lookups.
    kinds = block.kind
    pcs = block.pc
    addrs = block.addr
    sizes = block.size
    takens = block.taken
    stas = block.sta
    stds = block.std
    splits = split
    l1i_access = core.l1i.access
    l1d_access = core.l1d.access
    l2_access = core.l2.access
    l1i_fill = core.l1i.fill
    l1d_fill = core.l1d.fill
    l2_fill = core.l2.fill
    itlb_access = core.itlb.access
    dtlb_access = core.dtlb.access
    predict = core.predictor.access
    sb_check = core.store_buffer.check_load
    sb_push = core.store_buffer.push_store
    sb_advance = core.store_buffer.advance
    prefetch = core.config.prefetch_next_line
    # Stream-detector state for the data prefetcher: when consecutive
    # demand misses hit adjacent lines (an ascending sweep), the
    # prefetcher runs ahead several lines, like Core 2's DPL.
    last_miss_line = -(1 << 60)
    stream_depth = 8
    line_shift = line_bytes.bit_length() - 1

    for i in range(n):
        pc = int(pcs[i])
        if not itlb_access(pc):
            itlbm[i] = True
        if not l1i_access(pc):
            l1im[i] = True
            if not l2_access(pc):
                l2im[i] = True
            if prefetch:
                # Sequential front-end prefetch: the next line follows
                # the demand miss into both cache levels.
                l1i_fill(pc + fetch_line_bytes)
                l2_fill(pc + fetch_line_bytes)
        kind = kinds[i]
        if kind == KIND_LOAD:
            addr = int(addrs[i])
            size = int(sizes[i])
            blocked = sb_check(addr, size)
            if blocked == BLOCK_STA:
                ldbl_sta[i] = True
            elif blocked == BLOCK_STD:
                ldbl_std[i] = True
            elif blocked == BLOCK_OVERLAP:
                ldbl_ov[i] = True
            l0_miss, walk = dtlb_access(addr)
            if l0_miss:
                dtlb0_ld[i] = True
                if walk:
                    dtlb_walk_ld[i] = True
            if not l1d_access(addr):
                l1dm[i] = True
                if not l2_access(addr):
                    l2m[i] = True
                if prefetch:
                    # Streamer: adjacent lines follow a demand miss, and
                    # a detected ascending sweep is run ahead of (this
                    # is what hides strided workloads on Core 2).
                    miss_line = addr >> line_shift
                    depth = (
                        stream_depth
                        if 0 < miss_line - last_miss_line <= 2
                        else 1
                    )
                    last_miss_line = miss_line
                    for ahead in range(1, depth + 1):
                        l1d_fill(addr + ahead * line_bytes)
                        l2_fill(addr + ahead * line_bytes)
            if splits[i]:
                second = addr + size - 1
                if not l1d_access(second):
                    l2_access(second)
        elif kind == KIND_STORE:
            addr = int(addrs[i])
            size = int(sizes[i])
            sb_push(addr, size, bool(stas[i]), bool(stds[i]))
            l0_miss, walk = dtlb_access(addr)
            if l0_miss and walk:
                dtlb_walk_st[i] = True
            if not l1d_access(addr):
                store_l1m[i] = True
                if not l2_access(addr):
                    store_l2m[i] = True
                if prefetch:
                    miss_line = addr >> line_shift
                    depth = (
                        stream_depth
                        if 0 < miss_line - last_miss_line <= 2
                        else 1
                    )
                    last_miss_line = miss_line
                    for ahead in range(1, depth + 1):
                        l1d_fill(addr + ahead * line_bytes)
                        l2_fill(addr + ahead * line_bytes)
            if splits[i]:
                second = addr + size - 1
                if not l1d_access(second):
                    l2_access(second)
        else:
            sb_advance(1)
            if kind == KIND_BRANCH and not predict(pc, bool(takens[i])):
                mispred[i] = True

    events = SectionEvents(
        is_load=is_load,
        is_store=is_store,
        is_branch=is_branch,
        l1dm=l1dm,
        l2m=l2m,
        store_l1m=store_l1m,
        store_l2m=store_l2m,
        l1im=l1im,
        l2im=l2im,
        itlbm=itlbm,
        dtlb0_ld=dtlb0_ld,
        dtlb_walk_ld=dtlb_walk_ld,
        dtlb_walk_st=dtlb_walk_st,
        mispred=mispred,
        ldbl_sta=ldbl_sta,
        ldbl_std=ldbl_std,
        ldbl_ov=ldbl_ov,
        misal=misal,
        split_ld=split_ld,
        split_st=split_st,
        lcp=block.lcp,
        ilp=block.ilp,
        dependent_miss_fraction=block.dependent_miss_fraction,
    )
    return core._complete(block, events)


# ----------------------------------------------------------------------
# Collection oracles
#
# The suite runner prewarms each cache with one set-at-once bulk fill,
# jitters a section with one batched draw, and prices the ROB window by
# cumulative sums.  The straight-line forms they replaced are kept here:
# one ``fill`` per address, one generator call per jittered field, and
# ``np.convolve``.  The production steps must match them bit for bit,
# generator state included.


class ReferenceCycleAccounting(CycleAccounting):
    """Cycle accounting with the ROB-window miss sum taken by ``np.convolve``."""

    @staticmethod
    def window_sums(values: np.ndarray, width: int) -> np.ndarray:
        return np.convolve(values, np.ones(width), mode="same")


def reference_prewarm(core: SimulatedCore, params: PhaseParams) -> None:
    """:func:`repro.workloads.suite.prewarm` with one ``fill`` per line."""
    config = core.config

    def fill_lines(cache, base: int, span: int, budget: int) -> None:
        line = cache.config.line_bytes
        total = max(span // line, 1)
        step = max(total // max(budget, 1), 1)
        for index in range(0, total, step):
            cache.fill(base + index * line)

    def fill_pages(tlb, base: int, span: int, budget: int) -> None:
        page = tlb.config.page_bytes
        total = max(span // page, 1)
        step = max(total // max(budget, 1), 1)
        for index in range(0, total, step):
            tlb.access(base + index * page)

    l2_budget = int(config.l2.size_bytes // config.l2.line_bytes * _PREWARM_FILL)
    l1d_budget = int(config.l1d.size_bytes // config.l1d.line_bytes * _PREWARM_FILL)
    l1i_budget = int(config.l1i.size_bytes // config.l1i.line_bytes * _PREWARM_FILL)

    fill_lines(core.l2, 0, params.data_footprint, int(l2_budget * 0.75))
    fill_lines(
        core.l2, CODE_REGION_BASE, params.code_footprint, int(l2_budget * 0.25)
    )
    fill_lines(core.l1i, CODE_REGION_BASE, params.code_hot_bytes, l1i_budget)
    fill_lines(core.l2, 0, params.hot_set_bytes, l2_budget)
    fill_lines(core.l1d, 0, params.hot_set_bytes, l1d_budget)

    fill_pages(core.dtlb.level1, 0, params.data_footprint, config.dtlb.entries)
    fill_pages(core.dtlb.level1, 0, params.hot_set_bytes, config.dtlb.entries)
    fill_pages(core.dtlb.level0, 0, params.hot_set_bytes, config.dtlb0.entries)
    fill_pages(
        core.itlb, CODE_REGION_BASE, params.code_footprint, config.itlb.entries
    )
    fill_pages(
        core.itlb, CODE_REGION_BASE, params.code_hot_bytes, config.itlb.entries
    )
    core.dtlb.level1.reset_stats()
    core.dtlb.level0.reset_stats()
    core.itlb.reset_stats()


def reference_perturbed(
    params: PhaseParams, rng: RandomState = None, scale: float = 0.08
) -> PhaseParams:
    """:func:`repro.workloads.phases.perturbed`, one normal draw per field."""
    if scale < 0:
        raise ConfigError("scale must be non-negative")
    if scale == 0:
        return params
    generator = check_random_state(rng)
    updates = {}
    for name, multiplier in _JITTERED_FIELDS.items():
        factor = float(np.exp(generator.normal(0.0, scale * multiplier)))
        updates[name] = float(np.clip(getattr(params, name) * factor, 0.0, 1.0))
    mix = updates["load_fraction"] + updates["store_fraction"] + updates["branch_fraction"]
    if mix > 1.0:
        for name in ("load_fraction", "store_fraction", "branch_fraction"):
            updates[name] /= mix
    return dataclasses.replace(params, **updates)
