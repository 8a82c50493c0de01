"""Vector primitives: finite 1-D coercion and unit normalization.

All computation is 64-bit. Functions are pure and safe for concurrent
callers.
"""

from typing import Sequence

import numpy as np

from .errors import DimensionMismatchError, NonFiniteError, ZeroNormError

NORM_FLOOR = 1e-12


def as_vector(v: Sequence[float] | np.ndarray, name: str = "vector") -> np.ndarray:
    """Coerce to a finite float64 1-D array."""
    arr = np.asarray(v, dtype=np.float64)
    if arr.ndim != 1:
        raise DimensionMismatchError(f"{name} must be 1-D, got shape {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise NonFiniteError(f"{name} contains NaN or Inf")
    return arr


def unit_normalize(v: Sequence[float] | np.ndarray) -> np.ndarray:
    """Scale `v` to Euclidean norm 1, preserving direction."""
    arr = as_vector(v)
    norm = float(np.linalg.norm(arr))
    if norm <= NORM_FLOOR:
        raise ZeroNormError(f"norm {norm:.3e} below {NORM_FLOOR:.0e}")
    return arr / norm
