"""Observation container shared by every estimator."""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .exceptions import DataError

__all__ = ["Dataset"]

# Error messages list at most this many rows, then "... and N more rows".
_MAX_LISTED = 10


def _capped(items: list) -> list:
    if len(items) <= _MAX_LISTED:
        return items
    return items[:_MAX_LISTED] + [f"... and {len(items) - _MAX_LISTED} more rows"]


def _columns(a) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    return a[:, None] if a.ndim == 1 else a


@dataclass(frozen=True)
class Dataset:
    """One sample of the selection model.

    d : (n,) binary selection indicators
    y : (n,) observed outcomes (0 where d = 0 in simulated data; observed
        values are kept as-is for real data and masked through d)
    X : (n, k) outcome covariates
    Z : (n, l) selection covariates

    A 1-d ``X`` or ``Z`` is taken as one column; any other shape without n
    rows raises ValueError.  Nothing is transposed.  A NaN or infinite
    value in ``y``, ``X`` or ``Z`` raises DataError naming the array and its
    first bad rows (0-based), whatever ``d`` is.
    """

    d: np.ndarray = field(repr=False)
    y: np.ndarray = field(repr=False)
    X: np.ndarray = field(repr=False)
    Z: np.ndarray = field(repr=False)

    def __post_init__(self) -> None:
        d = np.asarray(self.d, dtype=float)
        y = np.asarray(self.y, dtype=float)
        X, Z = (_columns(a) for a in (self.X, self.Z))
        n = d.shape[0]
        if n < 2:
            raise ValueError("dataset needs at least 2 observations")
        if y.shape != (n,) or any(a.ndim != 2 or a.shape[0] != n for a in (X, Z)):
            raise ValueError("inconsistent dataset dimensions")
        if not np.all((d == 0.0) | (d == 1.0)):
            raise ValueError("selection indicator must be 0/1")
        messages = []
        for name, a in (("y", y), ("X", X), ("Z", Z)):
            if not np.isfinite(a).all():
                rows = np.flatnonzero(~np.isfinite(a.reshape(n, -1)).all(axis=1))
                listed = ", ".join(_capped([str(i) for i in rows]))
                messages.append(f"non-finite value in {name} at row {listed}")
        if messages:
            raise DataError("; ".join(messages))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "Z", Z)

    @property
    def n(self) -> int:
        return self.d.shape[0]

    @property
    def k(self) -> int:
        return self.X.shape[1]

    @property
    def l(self) -> int:
        return self.Z.shape[1]

    def selected(self) -> np.ndarray:
        return self.d > 0.5

    def take(self, rows: np.ndarray) -> "Dataset":
        """Row subset / resample (used by the bootstrap): ``rows`` holds row
        numbers, or is a boolean mask of length n.  The same rows, bitwise,
        as ``a[rows]`` gives, gathered by ``ndarray.take``, which is several
        times faster."""
        rows = np.asarray(rows)
        if rows.dtype == bool:
            if rows.shape != (self.n,):
                raise IndexError(f"boolean mask of shape {rows.shape} for {self.n} rows")
            rows = np.flatnonzero(rows)
        return Dataset(*(a.take(rows, axis=0) for a in (self.d, self.y, self.X, self.Z)))
