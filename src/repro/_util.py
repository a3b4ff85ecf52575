"""Small shared helpers: RNG normalization and input validation."""

from __future__ import annotations

from typing import Sequence, Union

import numpy as np

from repro.errors import DataError

RandomState = Union[None, int, np.random.Generator]


def check_random_state(seed: RandomState) -> np.random.Generator:
    """Return a :class:`numpy.random.Generator` for ``seed``.

    ``None`` gives a freshly seeded generator, an ``int`` a deterministic
    one, and an existing ``Generator`` is passed through unchanged so that
    callers can share a stream across components.
    """
    if seed is None:
        return np.random.default_rng()
    if isinstance(seed, np.random.Generator):
        return seed
    if isinstance(seed, (int, np.integer)):
        return np.random.default_rng(int(seed))
    raise TypeError(f"seed must be None, int or numpy Generator, got {type(seed)!r}")


def as_float_matrix(X: Sequence, name: str = "X") -> np.ndarray:
    """Validate and convert ``X`` to a 2-D float64 array with finite values."""
    arr = np.asarray(X, dtype=np.float64)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.ndim != 2:
        raise DataError(f"{name} must be 2-dimensional, got shape {arr.shape}")
    if arr.size and not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains NaN or infinite values")
    return arr


def as_float_vector(y: Sequence, name: str = "y") -> np.ndarray:
    """Validate and convert ``y`` to a 1-D float64 array with finite values."""
    arr = np.asarray(y, dtype=np.float64).ravel()
    if arr.size and not np.all(np.isfinite(arr)):
        raise DataError(f"{name} contains NaN or infinite values")
    return arr


def check_matching_lengths(X: np.ndarray, y: np.ndarray) -> None:
    """Raise :class:`DataError` unless ``X`` and ``y`` agree on row count."""
    if X.shape[0] != y.shape[0]:
        raise DataError(
            f"X has {X.shape[0]} rows but y has {y.shape[0]} values"
        )


def sample_sd(values: np.ndarray) -> float:
    """Population standard deviation used by the M5 family of algorithms.

    M5/M5' measure node impurity with the biased (population) standard
    deviation; for single-element sets the spread is zero by definition.
    """
    if values.size <= 1:
        return 0.0
    return float(np.std(values))


def format_float(value: float, digits: int = 4) -> str:
    """Format a float compactly for reports (no trailing zero noise)."""
    text = f"{value:.{digits}f}"
    if "." in text:
        text = text.rstrip("0").rstrip(".")
    return text if text not in ("-0", "") else "0"


def stable_hash(parts: Sequence[Union[str, int, float]]) -> str:
    """Deterministic short hex digest for cache keys (not security)."""
    import hashlib

    digest = hashlib.sha256("|".join(str(p) for p in parts).encode()).hexdigest()
    return digest[:16]


def ensure_positive(value: float, name: str) -> None:
    """Raise :class:`repro.errors.ConfigError` unless ``value > 0``."""
    from repro.errors import ConfigError

    if value <= 0:
        raise ConfigError(f"{name} must be positive, got {value!r}")


def ensure_fraction(value: float, name: str) -> None:
    """Raise :class:`repro.errors.ConfigError` unless ``0 <= value <= 1``."""
    from repro.errors import ConfigError

    if not 0.0 <= value <= 1.0:
        raise ConfigError(f"{name} must lie in [0, 1], got {value!r}")
