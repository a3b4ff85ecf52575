"""Shared unpacking of estimator training inputs.

Every learner in the package accepts either a :class:`Dataset` or the
raw ``(X, y, attribute_names)`` triple; this helper normalizes both to
validated arrays plus names.
"""

from __future__ import annotations

from typing import Optional, Sequence, Tuple, Union

import numpy as np

from repro._util import as_float_matrix, as_float_vector
from repro.datasets.dataset import Dataset
from repro.errors import DataError


def unpack_training_data(
    data: Union[Dataset, np.ndarray, Sequence],
    y: Optional[Sequence] = None,
    attribute_names: Optional[Sequence[str]] = None,
) -> Tuple[np.ndarray, np.ndarray, Tuple[str, ...], str]:
    """Normalize training input to ``(X, y, attribute_names, target_name)``."""
    if isinstance(data, Dataset):
        if y is not None or attribute_names is not None:
            raise DataError("pass either a Dataset or (X, y, names), not both")
        return data.X, data.y, data.attributes, data.target_name
    if y is None:
        raise DataError("y is required when fitting from arrays")
    X = as_float_matrix(data)
    targets = as_float_vector(y)
    if X.shape[0] != targets.shape[0]:
        raise DataError("X and y disagree on instance count")
    if attribute_names is None:
        names = tuple(f"X{i + 1}" for i in range(X.shape[1]))
    else:
        names = tuple(str(n) for n in attribute_names)
        if len(names) != X.shape[1]:
            raise DataError("attribute_names must match X's column count")
    return X, targets, names, "Y"
