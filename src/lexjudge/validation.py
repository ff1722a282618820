"""Input validation helpers shared by the public API."""

from __future__ import annotations

import numpy as np


def check_vector(x, name: str = "x", dim: int | None = None) -> np.ndarray:
    """Coerce to a finite 1-D float64 array, optionally of fixed length."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be 1-D, got shape {arr.shape}")
    if dim is not None and arr.shape[0] != dim:
        raise ValueError(f"{name} must have length {dim}, got {arr.shape[0]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def check_matrix(x, name: str = "x", cols: int | None = None) -> np.ndarray:
    """Coerce to a finite 2-D float64 array, optionally with a fixed column count."""
    arr = np.asarray(x, dtype=np.float64)
    if arr.ndim != 2:
        raise ValueError(f"{name} must be 2-D, got shape {arr.shape}")
    if cols is not None and arr.shape[1] != cols:
        raise ValueError(f"{name} must have {cols} columns, got {arr.shape[1]}")
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def check_finite(arr: np.ndarray, name: str = "array") -> np.ndarray:
    if not np.all(np.isfinite(arr)):
        raise ValueError(f"{name} contains non-finite values")
    return arr


def check_fraction(value: float, name: str = "fraction") -> float:
    value = float(value)
    if not 0.0 < value < 1.0:
        raise ValueError(f"{name} must lie strictly between 0 and 1, got {value}")
    return value


def check_unit_rate(value: float, name: str = "rate") -> float:
    """Probability in [0, 1)."""
    value = float(value)
    if not 0.0 <= value < 1.0:
        raise ValueError(f"{name} must lie in [0, 1), got {value}")
    return value


def check_threshold(value, name: str = "threshold") -> float:
    """Clue-match similarity threshold: a number in (0, 1]."""
    if isinstance(value, bool) or not isinstance(value, (int, float)) or not 0 < value <= 1:
        raise ValueError(f"{name} must be a number in (0, 1], got {value!r}")
    return value


def check_positive(value, name: str = "value"):
    if value <= 0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def check_seed(value, name: str = "seed") -> int:
    if not isinstance(value, int) or isinstance(value, bool) or not 0 <= value < (1 << 64):
        raise ValueError(f"{name} must be an unsigned 64-bit integer")
    return value
