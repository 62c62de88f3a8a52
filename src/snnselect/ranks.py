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
    An index that is not finite has no ranks and raises "non-finite index".
    This is the one-row call of ``_rank_rows``, which the Monte Carlo
    engine runs on R index rows at once.
    """
    if np.asarray(Z).shape[0] < 2:
        raise EstimationError("insufficient sample")
    if not np.any(np.asarray(gamma, dtype=float) != 0.0):
        raise EstimationError("degenerate index")
    with np.errstate(over="ignore", invalid="ignore"):
        idx = np.asarray(Z, dtype=float) @ np.asarray(gamma, dtype=float)
    if not np.isfinite(idx).all():
        raise EstimationError("non-finite index")
    return _rank_rows(idx[None])[0]


def _rank_rows(index: np.ndarray) -> np.ndarray:
    """The rank transform of each row: one argsort per row, then each sorted
    position takes the 1-based position of the last member of its tie
    group.  Ranks depend on the values alone, so the argsort need not be
    stable.  The counts are exact, so each rank is the correctly rounded
    count / n."""
    R, n = index.shape
    order = np.argsort(index, axis=1)
    flat = order + np.arange(0, R * n, n)[:, None]
    ordered = index.ravel()[flat]
    tie = ordered[:, 1:] == ordered[:, :-1]
    ends = np.arange(1.0, n + 1.0)
    if tie.any():
        # a position inside a tie group takes the end of the group: the
        # smallest group end at or after it
        ends = np.where(np.concatenate([tie, np.zeros((R, 1), dtype=bool)], axis=1), np.inf, ends)
        ends = np.minimum.accumulate(ends[:, ::-1], axis=1)[:, ::-1]
    eta = np.empty(R * n)
    eta[flat] = ends / n
    return eta.reshape(R, n)
