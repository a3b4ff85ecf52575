"""M5 prediction smoothing.

Along the path from leaf to root, the prediction is blended with each
ancestor's model:

    p' = (n * p + k * q) / (n + k)

where ``n`` is the population of the node below, ``q`` the ancestor
model's prediction and ``k`` a smoothing constant (15 in Quinlan's M5).
Smoothing trades a little interpretability (the effective leaf equation
becomes a blend) for accuracy on small leaves; the paper's analysis
reads raw leaf models, so the estimator keeps smoothing optional.
"""

from __future__ import annotations

from typing import Optional, Sequence

import numpy as np

from repro.core.tree.node import Node, path_to_leaf
from repro.errors import ConfigError, ReproError

#: Quinlan's default smoothing constant.
DEFAULT_SMOOTHING_K = 15.0


def smoothed_predict(root: Node, x: np.ndarray, k: float = DEFAULT_SMOOTHING_K) -> float:
    """Predict one instance with path smoothing."""
    return path_prediction(path_to_leaf(root, x), x, k)


def path_prediction(
    path: Sequence[Node], x: Sequence[float], k: Optional[float] = None
) -> float:
    """The prediction at the end of a decision path (root first, leaf last).

    Without ``k`` it is the leaf model's; with ``k`` the leaf model's
    prediction is blended with each ancestor's in turn, leaf to root.
    ``x`` may be a list of Python floats, whose arithmetic overflows
    silently to ``inf``/``nan`` where numpy's warns.
    """
    if k is not None and k < 0:
        raise ConfigError(f"smoothing constant k must be non-negative, got {k}")
    leaf = path[-1]
    if leaf.model is None:
        raise ReproError(
            "prediction requires a model at the leaf" if k is None
            else "smoothing requires a model at the leaf"
        )
    prediction = leaf.model.predict_one(x)
    if k is None:
        return prediction
    # Walk upward: blend with each ancestor in turn.
    for position in range(len(path) - 2, -1, -1):
        ancestor = path[position]
        below = path[position + 1]
        if ancestor.model is None:
            raise ReproError("smoothing requires a model at every ancestor")
        ancestor_prediction = ancestor.model.predict_one(x)
        prediction = (below.n_instances * prediction + k * ancestor_prediction) / (
            below.n_instances + k
        )
    return float(prediction)
