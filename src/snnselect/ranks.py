"""Empirical-CDF (symmetrized nearest-neighbour) transform of selection indices.

Each index value is replaced by the fraction of sample indices weakly below
it, so the transformed design is (close to) uniform on {1/n, ..., 1}.
"""
from __future__ import annotations

import numpy as np

from .exceptions import EstimationError

__all__ = ["eta_hat"]


def eta_hat(Z: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Rank transform: value_i = #{j : (Z_j - Z_i)'gamma <= 0} / n.

    Self-comparison is included, so every value is at least 1/n and the
    maximum index always maps to 1.  Ties share the highest applicable rank.
    Computed by one sort instead of the O(n^2) double loop.
    """
    if np.asarray(Z).shape[0] < 2:
        raise EstimationError("insufficient sample")
    if not np.any(np.asarray(gamma, dtype=float) != 0.0):
        raise EstimationError("degenerate index")
    idx = np.asarray(Z, dtype=float) @ np.asarray(gamma, dtype=float)
    order = np.sort(idx)
    return np.searchsorted(order, idx, side="right") / idx.shape[0]
