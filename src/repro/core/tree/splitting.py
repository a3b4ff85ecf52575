"""Best-split search by standard-deviation reduction (SDR).

M5 treats the standard deviation of the target at a node as its error
measure and picks the attribute/threshold pair that maximizes

    SDR = sd(T) - sum_i |T_i|/|T| * sd(T_i)

over the two children.  Each column is scanned in ascending order of its
values.  The order is either sorted here, one stable ``argsort`` per
block of columns, or handed in by the caller: the tree builder sorts
every column once at the root and gives each child the stable partition
of its parent's order (:func:`partition_order`), which is the child's
own stable argsort, so a node costs O(p * n) instead of O(p * n log n).
Columns are scanned in blocks of :data:`CHUNK_SIZE`: one gather, one
pair of prefix sums, one SDR surface and one ``argmax`` service a whole
block.  Results are bit-identical for any block width and either source
of the order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigError, DataError

#: Columns scanned per vectorized block.  Bounds the scan's working
#: memory at ``O(n * CHUNK_SIZE)`` while amortizing NumPy dispatch.
CHUNK_SIZE = 32


@dataclass(frozen=True)
class Split:
    """A candidate binary split of a node.

    Attributes:
        attribute_index: Column tested.
        threshold: Test value; instances go left iff ``value <= threshold``.
        sdr: Standard-deviation reduction achieved.
        n_left / n_right: Child populations.
    """

    attribute_index: int
    threshold: float
    sdr: float
    n_left: int
    n_right: int


def partition_order(
    order: np.ndarray, go_left: np.ndarray
) -> Tuple[np.ndarray, np.ndarray]:
    """Both children's row orders from their parent's, per column.

    ``order`` is ``(n, p)``: column ``j`` lists the parent's rows in
    ascending order of ``X[:, j]``, ties in row order.  Keeping each
    column's rows that go left (right), renumbered as rows of
    ``X[go_left]`` (``X[~go_left]``), keeps that property, so each result
    equals the child's own ``np.argsort(X_child, axis=0, kind="stable")``.
    """
    n, p = order.shape
    n_left = int(np.count_nonzero(go_left))
    lefts = np.cumsum(go_left)  # left rows up to and including each row
    # Each parent row's index in its child: left rows count the left rows
    # before them, right rows the right ones.
    child_row = np.where(go_left, lefts - 1, np.arange(n) - lefts)
    columns = order.T
    left = go_left[columns]
    renumbered = child_row[columns]
    return (
        renumbered[left].reshape(p, n_left).T,
        renumbered[~left].reshape(p, n - n_left).T,
    )


def find_best_split(
    X: np.ndarray,
    y: np.ndarray,
    min_leaf: int = 2,
    *,
    order: Optional[np.ndarray] = None,
) -> Optional[Split]:
    """The SDR-maximizing split, or ``None`` if no valid split exists.

    A split is valid when both children hold at least ``min_leaf``
    instances and the threshold separates distinct attribute values.
    Ties in SDR resolve to the lowest attribute index, then the lowest
    threshold, keeping tree construction deterministic.

    Args:
        order: ``np.argsort(X, axis=0, kind="stable")``, if the caller
            already has it (same shape as ``X``); ``None`` sorts here.
    """
    if min_leaf < 1:
        raise ConfigError(f"min_leaf must be at least 1, got {min_leaf}")
    if order is not None and order.shape != X.shape:
        raise DataError(f"order has shape {order.shape}, X has shape {X.shape}")
    n = y.shape[0]
    if n < 2 * min_leaf:
        return None

    sd_total = float(np.std(y))
    if sd_total <= 0.0:
        return None

    # Boundary b lies between sorted rows b and b + 1; both sides keep
    # at least min_leaf rows.
    low, high = min_leaf - 1, n - min_leaf
    n_left = np.arange(min_leaf, high + 1, dtype=np.float64)[:, None]
    n_right = n - n_left

    best: Optional[Split] = None
    for start in range(0, X.shape[1], CHUNK_SIZE):
        Xc = X[:, start:start + CHUNK_SIZE]
        if order is None:
            chunk_order = np.argsort(Xc, axis=0, kind="stable")
        else:
            chunk_order = order[:, start:start + CHUNK_SIZE]
        columns = np.arange(Xc.shape[1])
        xs = Xc[chunk_order, columns]
        ys = y[chunk_order]

        # (boundaries, columns): True where the boundary separates
        # distinct attribute values, i.e. where a threshold can be placed.
        distinct = xs[low:high] < xs[low + 1:high + 1]

        prefix_sum = np.cumsum(ys, axis=0)
        prefix_sumsq = np.cumsum(ys * ys, axis=0)
        sum_left = prefix_sum[low:high]
        sum_right = prefix_sum[-1] - sum_left
        sumsq_left = prefix_sumsq[low:high]
        sumsq_right = prefix_sumsq[-1] - sumsq_left

        var_left = np.maximum(sumsq_left / n_left - (sum_left / n_left) ** 2, 0.0)
        var_right = np.maximum(
            sumsq_right / n_right - (sum_right / n_right) ** 2, 0.0
        )
        weighted_sd = (
            n_left * np.sqrt(var_left) + n_right * np.sqrt(var_right)
        ) / n
        sdr = sd_total - weighted_sd

        # Per column: the first boundary of highest SDR among the
        # distinct ones.  A column without one, or whose best SDR is
        # <= 0, offers no split (a NaN SDR is not ruled out).
        positions = np.where(distinct, sdr, -np.inf).argmax(axis=0)
        column_sdr = sdr[positions, columns]
        offers = distinct.any(axis=0) & ~(column_sdr <= 0.0)
        for j in np.flatnonzero(offers).tolist():
            candidate_sdr = float(column_sdr[j])
            if best is not None and not candidate_sdr > best.sdr + 1e-15:
                continue
            index = low + int(positions[j])
            threshold = float((xs[index, j] + xs[index + 1, j]) / 2.0)
            if not threshold < xs[index + 1, j]:
                # Adjacent floating-point values: the midpoint rounded up
                # to the right value, which would send every instance
                # left and recurse forever.  Cut at the left value.
                threshold = float(xs[index, j])
            best = Split(
                attribute_index=start + j,
                threshold=threshold,
                sdr=candidate_sdr,
                n_left=index + 1,
                n_right=n - index - 1,
            )
    return best
