"""Leaf/node linear models with M5-style term dropping.

Each tree node carries a multivariate linear model of the target.  M5
keeps those models small by greedily removing terms as long as the
*pessimistic* error estimate — average absolute error inflated by
``(n + v) / (n - v)`` for ``v`` estimated parameters on ``n`` instances —
does not increase.  The surviving terms are the ones the paper reads off
as per-event performance impacts (its LM8/LM11 examples).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from repro._util import format_float
from repro.errors import ConfigError, DataError

#: Pessimistic multiplier used when a model has at least as many
#: parameters as instances (the (n+v)/(n-v) correction is undefined).
_SATURATED_PENALTY = 10.0


@dataclass(frozen=True)
class LinearModel:
    """A fitted linear model over a subset of dataset attributes.

    Attributes:
        intercept: Constant term.
        indices: Column indices (into the training attribute order) of the
            retained terms.
        names: Attribute names matching ``indices``.
        coefficients: Slope per retained term.
        n_training: Instances the model was fitted on.
        training_error: Plain average absolute error on those instances.
    """

    intercept: float
    indices: Tuple[int, ...]
    names: Tuple[str, ...]
    coefficients: Tuple[float, ...]
    n_training: int
    training_error: float

    def __post_init__(self) -> None:
        if not (len(self.indices) == len(self.names) == len(self.coefficients)):
            raise DataError("indices, names and coefficients must align")

    @property
    def n_parameters(self) -> int:
        """Estimated parameters: one per term plus the intercept."""
        return len(self.coefficients) + 1

    @property
    def is_constant(self) -> bool:
        return not self.coefficients

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predict for a full-width attribute matrix."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        result = np.full(X.shape[0], self.intercept)
        for index, coefficient in zip(self.indices, self.coefficients):
            result += coefficient * X[:, index]
        return result

    def predict_one(self, x: np.ndarray) -> float:
        """Predict a single full-width attribute row."""
        value = self.intercept
        for index, coefficient in zip(self.indices, self.coefficients):
            value += coefficient * x[index]
        return float(value)

    def adjusted_error(self) -> float:
        """Training error under the M5 (n+v)/(n-v) pessimistic correction."""
        return adjusted_error(self.training_error, self.n_training, self.n_parameters)

    def describe(self, target_name: str = "Y", digits: int = 4) -> str:
        """Render as an equation, e.g. ``CPI = 0.52 + 6.69 * L1IM``."""
        parts = [format_float(self.intercept, digits)]
        for name, coefficient in zip(self.names, self.coefficients):
            sign = "-" if coefficient < 0 else "+"
            parts.append(f"{sign} {format_float(abs(coefficient), digits)} * {name}")
        return f"{target_name} = " + " ".join(parts)


def adjusted_error(average_abs_error: float, n: int, n_parameters: int) -> float:
    """M5's pessimistic error: AAE * (n + v) / (n - v).

    When ``n <= v`` the correction blows up; M5 caps it with a large
    constant so saturated models are strongly discouraged but finite.
    """
    if n <= 0:
        return float("inf")
    if n <= n_parameters:
        return average_abs_error * _SATURATED_PENALTY
    return average_abs_error * (n + n_parameters) / (n - n_parameters)


class _Fit(NamedTuple):
    """One subset solve: what a :class:`LinearModel` is built from."""

    indices: Tuple[int, ...]
    intercept: float
    coefficients: Tuple[float, ...]
    training_error: float


#: The correlation key of the target column.
_TARGET = None

#: Most doubles one stacked batch holds: column subsets for the ridge
#: solves, row pairs for the correlations.  Longer batches run block by
#: block, which bounds a node model's working memory; a block holds at
#: least one item.
STACK_BLOCK = 32 * 1024


class _NodeState:
    """What the refits and correlations inside one public call share.

    Computed at most once per call, on first use: each column's ptp, the
    target mean and centred target, and the correlations (keyed by
    ordered pair).  Ridge solves and correlations run as stacked batches
    whose every item is bit for bit its standalone computation: a stack
    keeps each column contiguous, as the F-ordered ``X[:, cols]`` of a
    standalone fit does, so each reduction runs along a contiguous row,
    and each product is shaped so that numpy makes the standalone
    computation's BLAS call per item.  The state is dropped when the
    call returns.
    """

    def __init__(
        self,
        X: np.ndarray,
        y: np.ndarray,
        ridge: float = 0.0,
        nonnegative: Sequence[int] = (),
    ) -> None:
        self.X = np.asarray(X, dtype=np.float64)
        self.y = np.asarray(y, dtype=np.float64)
        self.n = self.y.shape[0]
        self.ridge = ridge
        self.nonnegative = frozenset(nonnegative)
        self._correlations: Dict[Tuple[Optional[int], Optional[int]], float] = {}

    @cached_property
    def ptp(self) -> List[float]:
        """Each column's range; max and min are exact, so any shape agrees."""
        return np.ptp(self.X, axis=0).tolist()

    @cached_property
    def y_ptp(self) -> float:
        return float(np.ptp(self.y))

    @cached_property
    def y_mean(self) -> float:
        return float(self.y.mean())

    @cached_property
    def y_centred(self) -> np.ndarray:
        return self.y - self.y_mean

    # ------------------------------------------------------------------
    def correlation(self, i: Optional[int], j: Optional[int]) -> float:
        """``np.corrcoef(column_i, column_j)[0, 1]``, bit for bit.

        ``None`` names the target.  Either side constant (ptp at most
        1e-15) gives 0.0.  Swapping the arguments can change the last
        bit, so the memo keys on the ordered pair.
        """
        key = (i, j)
        if key not in self._correlations:
            self.correlate((key,))
        return self._correlations[key]

    def _spread(self, key: Optional[int]) -> float:
        return self.y_ptp if key is _TARGET else self.ptp[key]

    def correlate(self, pairs: Iterable[Tuple[Optional[int], Optional[int]]]) -> None:
        """Memoize the correlation of each ordered pair, in stacked blocks.

        np.corrcoef's arithmetic: one ``(2, n)`` product of the two
        centred rows with its own transpose, scaled by 1/(n-1), divided
        by each standard deviation in turn, clipped to [-1, 1] (NaN
        passes through).  Stacked as ``(P, 2, n)``, each item makes the
        same syrk call as np.corrcoef; a single Gram of all the rows
        would not match it.
        """
        memo = self._correlations
        pending = []
        for key in pairs:
            if key not in memo:
                if self._spread(key[0]) <= 1e-15 or self._spread(key[1]) <= 1e-15:
                    memo[key] = 0.0
                else:
                    pending.append(key)
        if not pending:
            return
        # Each column this batch reads, once, as a contiguous row minus
        # its mean, as np.cov centres it.
        position: Dict[Optional[int], int] = {}
        for key in pending:
            for k in key:
                position.setdefault(k, len(position))
        centred = np.array([self.y if k is _TARGET else self.X[:, k] for k in position])
        centred -= centred.mean(axis=1, keepdims=True)
        index = np.array([[position[i], position[j]] for i, j in pending])
        # Past the guard some centred value is at least ptp / 2 in
        # magnitude, so no variance is zero (non-finite data gives NaN,
        # as in numpy).
        scale = 1 / (self.n - 1)
        per_block = max(1, STACK_BLOCK // (2 * self.n))
        for start in range(0, len(pending), per_block):
            keys = pending[start:start + per_block]
            stack = centred[index[start:start + per_block]]
            products = (stack @ stack.swapaxes(1, 2)).tolist()
            for key, ((c_ii, c_ij), (_, c_jj)) in zip(keys, products):
                value = c_ij * scale / math.sqrt(c_ii * scale) / math.sqrt(c_jj * scale)
                memo[key] = 1.0 if value > 1.0 else -1.0 if value < -1.0 else value

    # ------------------------------------------------------------------
    def fit(self, candidate_indices: Sequence[int]) -> _Fit:
        """Least squares on the usable candidates; see fit_linear_model."""
        y = self.y
        n = self.n
        ridge = self.ridge
        if n == 0:
            raise DataError("cannot fit a linear model on zero instances")
        if ridge < 0:
            raise ConfigError(f"ridge must be non-negative, got {ridge}")
        # Constant columns are indistinguishable from the intercept, and
        # saturated systems are avoided outright.
        ptp = self.ptp
        usable = tuple(index for index in candidate_indices if ptp[index] > 1e-12)
        usable = usable[: max(n - 1, 0)]
        if not usable:
            error = float(np.mean(np.abs(self.y_centred)))
            return _Fit((), self.y_mean, (), error)
        constrained = [
            position for position, idx in enumerate(usable) if idx in self.nonnegative
        ]
        if not constrained and ridge > 0:
            return self._ridge_fits([usable])[0]
        columns = self.X[:, list(usable)]
        if constrained:
            coefficients, intercept = _bounded_fit(columns, y, constrained, ridge)
            residual = y - (columns @ coefficients + intercept)
        else:
            design = np.column_stack([columns, np.ones(n)])
            solution, *_ = np.linalg.lstsq(design, y, rcond=None)
            coefficients = solution[:-1]
            intercept = float(solution[-1])
            residual = y - design @ solution
        return _Fit(
            usable,
            intercept,
            tuple(coefficients.tolist()),
            float(np.mean(np.abs(residual))),
        )

    def drop_one_fits(self, indices: Tuple[int, ...]) -> List[_Fit]:
        """:meth:`fit` of ``indices`` less each term in turn, in term order.

        When every subset takes the ridge path unchanged (no constant
        column, no constrained term, not saturated), all of them are one
        stacked solve; otherwise each is fitted on its own.
        """
        subsets = [indices[:drop] + indices[drop + 1:] for drop in range(len(indices))]
        ptp = self.ptp
        if (
            1 < len(indices) <= self.n
            and self.ridge > 0
            and self.nonnegative.isdisjoint(indices)
            and all(ptp[index] > 1e-12 for index in indices)
        ):
            return self._ridge_fits(subsets)
        return [self.fit(subset) for subset in subsets]

    def _ridge_fits(self, subsets: Sequence[Tuple[int, ...]]) -> List[_Fit]:
        """Standardized-ridge fits of equal-length usable subsets, stacked.

        Center, penalize standardized coefficients, back-transform.  Per
        block of subsets, the columns are a ``(b, m, n)`` stack gathered
        from ``X.T``, each column one contiguous row, so every mean and
        standard deviation reduces a contiguous run, as it does in the
        F-ordered ``X[:, cols]`` of a standalone fit.  Per item, the Gram
        is a syrk, the right-hand side and the fitted values are gemv
        calls, and the intercept's product is a dot, as in that fit.
        """
        n = self.n
        width = len(subsets[0])
        diagonal = np.arange(width)
        penalty_scale = self.ridge * n
        per_block = max(1, STACK_BLOCK // (width * n))
        fits = []
        for start in range(0, len(subsets), per_block):
            block = subsets[start:start + per_block]
            columns = self.X.T[np.array(block)]
            means = columns.mean(axis=2)
            centred = columns - means[..., None]
            penalty = np.zeros((len(block), width, width))
            penalty[:, diagonal, diagonal] = np.maximum(centred.std(axis=2), 1e-12) ** 2
            gram = centred @ centred.swapaxes(1, 2) + penalty_scale * penalty
            rhs = centred @ self.y_centred
            coefficients = np.linalg.solve(gram, rhs[..., None])
            offsets = coefficients.swapaxes(1, 2) @ means[..., None]
            intercepts = self.y_mean - offsets[:, 0, 0]
            fitted = (columns.swapaxes(1, 2) @ coefficients)[..., 0]
            errors = np.abs(self.y - (fitted + intercepts[:, None])).mean(axis=1)
            fits.extend(
                _Fit(subset, intercept, tuple(row), error)
                for subset, intercept, row, error in zip(
                    block, intercepts.tolist(), coefficients[..., 0].tolist(),
                    errors.tolist(),
                )
            )
        return fits

    def model(self, fit: _Fit, attribute_names: Sequence[str]) -> LinearModel:
        return LinearModel(
            intercept=fit.intercept,
            indices=tuple(int(i) for i in fit.indices),
            names=tuple(attribute_names[i] for i in fit.indices),
            coefficients=fit.coefficients,
            n_training=self.n,
            training_error=fit.training_error,
        )


def select_uncorrelated(
    X: np.ndarray,
    y: np.ndarray,
    candidate_indices: Sequence[int],
    threshold: float = 0.95,
) -> List[int]:
    """Greedily drop near-duplicate candidate attributes.

    Counter sets contain families of almost-identical metrics (the Table I
    DTLB group, or L2M vs DtlbLdM inside a pointer-chasing class); fitting
    both members of a pair correlated above ``threshold`` yields huge
    opposite-signed coefficients that destroy interpretability.  Candidates
    are ranked by |correlation with the target| and kept only if they do
    not correlate beyond ``threshold`` with an already-kept candidate.
    The returned list is in ascending index order.
    """
    if not 0.0 < threshold <= 1.0:
        raise ConfigError(f"threshold must lie in (0, 1], got {threshold}")
    state = _NodeState(X, y)
    state.correlate([(index, _TARGET) for index in candidate_indices])
    ranked = sorted(
        candidate_indices, key=lambda j: -abs(state.correlation(j, _TARGET))
    )
    state.correlate(
        (index, other)
        for position, index in enumerate(ranked)
        for other in ranked[:position]
    )
    kept: List[int] = []
    for index in ranked:
        if all(
            abs(state.correlation(index, other)) <= threshold for other in kept
        ):
            kept.append(index)
    return sorted(kept)


def fit_linear_model(
    X: np.ndarray,
    y: np.ndarray,
    candidate_indices: Sequence[int],
    attribute_names: Sequence[str],
    ridge: float = 0.0,
    nonnegative: Sequence[int] = (),
) -> LinearModel:
    """Least-squares fit of ``y`` on the candidate attribute columns.

    Degenerate cases (no candidates, constant columns, more parameters
    than instances) fall back gracefully toward the mean model.

    Args:
        ridge: Standardized-ridge strength.  A small positive value
            (1e-4 is the tree default) leaves well-conditioned fits
            essentially untouched but stops the opposite-signed
            coefficient explosions that correlated counters otherwise
            produce in leaf models.  0 is exact least squares.
        nonnegative: Column indices whose coefficients are constrained
            to be >= 0 — the physical reading of stall-event metrics,
            which cannot make the machine faster.  Solved with a bounded
            least-squares solver (scipy) when any constraint applies.
    """
    state = _NodeState(X, y, ridge, nonnegative)
    return state.model(state.fit(candidate_indices), attribute_names)


def _bounded_fit(
    columns: np.ndarray,
    y: np.ndarray,
    constrained_positions: Sequence[int],
    ridge: float,
):
    """Bounded least squares: selected coefficients >= 0, intercept free.

    The ridge (if any) is folded in as augmented rows, the standard
    trick for solvers without a native penalty term.
    """
    from scipy.optimize import lsq_linear

    n, p = columns.shape
    design = np.column_stack([columns, np.ones(n)])
    target = y.astype(np.float64)
    if ridge > 0:
        scales = np.maximum(columns.std(axis=0), 1e-12)
        penalty = np.zeros((p, p + 1))
        penalty[:, :p] = np.sqrt(ridge * n) * np.diag(scales)
        design = np.vstack([design, penalty])
        target = np.concatenate([target, np.zeros(p)])
    lower = np.full(p + 1, -np.inf)
    for position in constrained_positions:
        lower[position] = 0.0
    result = lsq_linear(design, target, bounds=(lower, np.full(p + 1, np.inf)))
    solution = result.x
    return solution[:-1], float(solution[-1])


def resolve_opposed_pairs(
    model: LinearModel,
    X: np.ndarray,
    y: np.ndarray,
    attribute_names: Sequence[str],
    ridge: float = 0.0,
    corr_threshold: float = 0.75,
    nonnegative: Sequence[int] = (),
) -> LinearModel:
    """Dissolve opposite-signed terms on strongly correlated attributes.

    When two retained attributes correlate above ``corr_threshold`` and
    their fitted coefficients have opposite signs, the pair is fitting
    the (noisy) *difference* of two near-duplicate counters — the
    classic collinearity explosion (e.g. ``-304*L2M + 298*DtlbLdM``)
    that makes a leaf equation unreadable and its contribution
    decomposition meaningless.  The member less correlated with the
    target is dropped and the model refitted, repeating until no such
    pair remains.  Well-behaved models pass through unchanged.
    """
    state = _NodeState(X, y, ridge, nonnegative)
    indices, coefficients = model.indices, model.coefficients
    resolved: Optional[_Fit] = None
    while True:
        offender = _find_opposed_pair(state, indices, coefficients, corr_threshold)
        if offender is None:
            return model if resolved is None else state.model(resolved, attribute_names)
        resolved = state.fit([i for i in indices if i != offender])
        indices, coefficients = resolved.indices, resolved.coefficients


def _find_opposed_pair(
    state: _NodeState,
    indices: Sequence[int],
    coefficients: Sequence[float],
    corr_threshold: float,
):
    """The index to drop from the worst opposed pair, or None."""
    # "not >= 0" also counts a NaN product as opposed, as the reference does.
    opposed = [
        (indices[position_a], indices[position_b])
        for position_a in range(len(indices))
        for position_b in range(position_a + 1, len(indices))
        if not coefficients[position_a] * coefficients[position_b] >= 0
    ]
    state.correlate(opposed)
    for index_a, index_b in opposed:
        if abs(state.correlation(index_a, index_b)) <= corr_threshold:
            continue
        keep_a = abs(state.correlation(index_a, _TARGET)) >= abs(
            state.correlation(index_b, _TARGET)
        )
        return index_b if keep_a else index_a
    return None


def simplify_model(
    model: LinearModel,
    X: np.ndarray,
    y: np.ndarray,
    attribute_names: Sequence[str],
    ridge: float = 0.0,
    nonnegative: Sequence[int] = (),
) -> LinearModel:
    """Greedily drop terms while the pessimistic error does not increase.

    At each step, every remaining term is tentatively removed (with a
    refit); the best resulting model replaces the current one if its
    adjusted error is no worse.  The constant (mean) model is always a
    candidate endpoint.  Only the final model is built as a
    :class:`LinearModel`; candidates are compared on their solves.
    """
    state = _NodeState(X, y, ridge, nonnegative)
    indices = model.indices
    best_error = model.adjusted_error()
    best: Optional[_Fit] = None
    while indices:
        step: Optional[_Fit] = None
        for candidate in state.drop_one_fits(indices):
            candidate_error = adjusted_error(
                candidate.training_error, state.n, len(candidate.indices) + 1
            )
            if candidate_error <= best_error + 1e-12:
                step = candidate
                best_error = candidate_error
        if step is None:
            break
        best = step
        indices = step.indices
    return model if best is None else state.model(best, attribute_names)
