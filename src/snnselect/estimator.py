"""Rank-transformed locally linear intercept estimator with plug-in bandwidth.

The intercept of the outcome equation is estimated as the level, at rank one,
of a locally linear fit of the selection-masked residuals on the rank
transform of the selection index.  The local fit is anchored at the upper
boundary of the rank scale, where the probability of selection approaches
one.  ``_snn_rows`` fits R samples of one n at once; ``registry.fit`` runs
it, and ``registry.snn_intercept`` is that fit on one sample.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .data import Dataset
from .numerics import _ls_rows, eval_kernel, kernel_l2, kernel_moment

__all__ = [
    "BandwidthRule",
    "InterceptEstimate",
    "residualized_outcome",
    "undersmoothing_bandwidth",
    "BANDWIDTH_CLAMP",
]

# Clamp band for the plug-in bandwidth.  The lower bound keeps the local
# window populated; the upper bound is returned whenever either gate of
# the plug-in rule fails.  Under dgp2 that is the tail-ratio gate, in every
# sample, even where the rank-domain curvature is significant, so the cap is
# not an unbounded optimal bandwidth and the capped fit stays biased as n
# grows.  At the cap the kernel covers the whole rank range with a mild
# taper, so the fit uses the full sample.
BANDWIDTH_CLAMP = (0.05, 2.0)

# Gate constants for the plug-in rule, see _plug_in_from_ranks.
_TAIL_RATIO_MAX = 1.2
_CURVATURE_Z = 3.5
_WIDEN_FACTOR = 1.5


@dataclass(frozen=True)
class BandwidthRule:
    """Either a fixed bandwidth or the plug-in rule times a scale factor."""

    kind: str  # "fixed" | "plugin"
    value: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("fixed", "plugin"):
            raise ValueError(f"unknown bandwidth rule: {self.kind!r}")
        if not math.isfinite(self.value):
            raise ValueError("bandwidth value/scale must be finite")
        if self.value <= 0.0:
            raise ValueError("bandwidth value/scale must be positive")
        if self.kind == "fixed" and self.value > BANDWIDTH_CLAMP[1]:
            raise ValueError("fixed bandwidth outside supported range")

    @classmethod
    def fixed(cls, h: float) -> "BandwidthRule":
        return cls("fixed", float(h))

    @classmethod
    def plug_in(cls, scale: float = 1.0) -> "BandwidthRule":
        return cls("plugin", float(scale))


class InterceptEstimate(NamedTuple):
    """One intercept fit; a stacked body returns the same record with each
    field stacked over its R rows."""

    theta: float
    std_error: float
    bandwidth: float
    effective_n: int


def residualized_outcome(data: Dataset, beta: np.ndarray) -> np.ndarray:
    """Selection-masked residuals W_i = d_i * (y_i - X_i' beta)."""
    beta = np.asarray(beta, dtype=float)
    return data.d * (data.y - data.X @ beta)


def undersmoothing_bandwidth(n: int, p: int = 2, c: float = 0.5) -> float:
    """Rate-optimal schedule c * n^(-1/(2p+1)) used by the rate checker."""
    if n < 1:
        raise ValueError("n must be positive")
    if not math.isfinite(c):
        raise ValueError("c must be finite")
    if c <= 0:
        raise ValueError("c must be positive")
    return c * float(n) ** (-1.0 / (2 * p + 1))


def _local_linear_solve(t: np.ndarray, K: np.ndarray, W: np.ndarray):
    """Weighted 2x2 normal equations for the fit a + b*t around t = 0, one
    per row of the (R, n) arrays.

    Returns (a, b, weights, degenerate) where ``weights`` are the equivalent
    linear weights of each intercept, a = weights @ W row by row; a
    ``degenerate`` row holds no fit.
    """
    s0 = K.sum(axis=1)
    s1 = np.vecdot(K, t)
    s2 = np.vecdot(K, t * t)
    det = s0 * s2 - s1 * s1
    scale = np.maximum(np.maximum(s0 * s2, s1 * s1), 1e-300)
    degenerate = det <= 1e-12 * scale
    # a degenerate row divides by 1 instead, so it raises no warning
    det = np.where(degenerate, 1.0, det)[:, None]
    w = (s2[:, None] - s1[:, None] * t) * K / det
    a = np.vecdot(w, W)
    b = np.vecdot((s0[:, None] * t - s1[:, None]) * K / det, W)
    return a, b, w, degenerate


def _two_ranks_weighted(t: np.ndarray, u: np.ndarray) -> np.ndarray:
    """Whether >= 2 distinct ranks have weight, per row of t = eta - 1 and
    u = t / h.  A rank has weight when u > -1, the kernel's open support;
    the top rank has t = 0, so this asks for a weighted rank below it."""
    return np.any((t < 0.0) & (u > -1.0), axis=-1)


def _snn_rows(eta, idx, W, kernel_order: int, rule: BandwidthRule):
    """The snn fit of each row of the (R, n) ranks, index values and W;
    returns (InterceptEstimate of stacked fields, errors), errors mapping a
    failed row to its reason.

    Each row runs the same arithmetic as its R = 1 call: whole-row products
    are ``vecdot`` and ``sum(axis=1)`` over contiguous rows, and the
    plug-in's polynomial pilot is one stacked least-squares fit.  The rows
    whose window holds one rank widen together, each step h -> 1.5 h up to
    the cap; a row still at one rank at the cap has a singular local fit,
    so the solve gives it "degenerate local design".  No row is fitted
    apart from the others.
    """
    t = eta - 1.0
    if rule.kind == "fixed":
        h, errors = np.full(t.shape[0], rule.value), {}
    else:
        h, errors = _plug_in_from_ranks(t, idx, W, kernel_order, rule.value)
    cap = BANDWIDTH_CLAMP[1]
    u = t / h[:, None]
    narrow = np.flatnonzero(~_two_ranks_weighted(t, u) & (h < cap))
    while narrow.size:
        h[narrow] = np.minimum(h[narrow] * _WIDEN_FACTOR, cap)
        u[narrow] = t[narrow] / h[narrow, None]
        narrow = narrow[~_two_ranks_weighted(t[narrow], u[narrow]) & (h[narrow] < cap)]
    K = eval_kernel(kernel_order, u)
    theta, slope, w, degenerate = _local_linear_solve(t, K, W)
    errors = {**dict.fromkeys(np.flatnonzero(degenerate), "degenerate local design"), **errors}
    resid = W - (theta[:, None] + slope[:, None] * t)
    ksum = np.where(degenerate, 1.0, K.sum(axis=1))
    sigma2 = np.vecdot(K, resid * resid) / ksum
    se = np.sqrt(np.maximum(sigma2, 0.0) * np.vecdot(w, w))
    return InterceptEstimate(theta, se, h, np.count_nonzero(K > 0.0, axis=1)), errors


def _upper_tail_ratio(idx: np.ndarray) -> np.ndarray:
    """Spread of the upper tail relative to the upper shoulder of the index,
    per row of idx (R, n).

    (Q95 - Q75) / (Q75 - Q50), inf where the shoulder is not positive.
    Small for bounded, regularly terminating designs (uniform ~ 0.8); large
    for designs identified "at infinity" (normal ~ 1.44, heavy tails >> 1).
    """
    q50, q75, q95 = np.quantile(idx, [0.50, 0.75, 0.95], axis=1)
    shoulder = q75 - q50
    return np.divide(q95 - q75, shoulder, out=np.full(shoulder.shape, np.inf),
                     where=shoulder > 0.0)


def _plug_in_from_ranks(
    t: np.ndarray,
    idx: np.ndarray,
    W: np.ndarray,
    p: int,
    scale: float,
) -> tuple[np.ndarray, dict]:
    """Estimated MSE-optimal bandwidth for the boundary locally linear fit,
    per row of the centred ranks t = eta_hat - 1, the index values and W
    (each (R, n)), and the kernel order p; returns (h, errors), errors
    mapping every row to "insufficient sample" below 30 observations, where
    each h is the upper clamp.

    The rule evaluates

        h* = [ (p!)^2 sigma2(1) IntK2 / (2p kappa_p^2 m_p^2 n) ]^(1/(2p+1))

    with kappa_p = Int u^p K and m_p the p-th derivative of the conditional
    mean of W at rank one.  m_p is taken from a global degree-p polynomial
    pilot in (eta - 1), but only when the design affirmatively exhibits a
    regular upper boundary: the index's upper tail must be bounded relative
    to its shoulder and the pilot's leading coefficient must be statistically
    significant.  If either gate fails the rule returns the upper clamp.  The
    gates fail for different reasons: an insignificant pilot means no
    curvature was detected, but a failed tail gate says nothing about the
    curvature.  Under dgp2 (Cauchy index) the tail gate fails in every
    sample while the pilot curvature is usually significant, so the clamp
    there is not an unbounded optimal bandwidth, and the clamped fit is
    biased.  The returned value is scale * h* clamped to BANDWIDTH_CLAMP.

    The tail-ratio gate needs only the index, so it is checked, for all rows
    at once, before the polynomial pilot: when it fails, the pilot could not
    change the result.  One ``_ls_rows`` call fits the pilot of every row
    whose tail gate passed; a row where that fit is singular (too few
    distinct ranks) gets the clamp.
    """
    R, n = t.shape
    lo, hi = BANDWIDTH_CLAMP
    h = np.full(R, hi)
    if n < 30:
        return h, dict.fromkeys(range(R), "insufficient sample")
    rows = np.flatnonzero(_upper_tail_ratio(idx) <= _TAIL_RATIO_MAX)
    if rows.size == 0:
        return h, {}
    # the columns (1, t, ..., t^p) by np.vander's running product
    T = np.empty((rows.size, n, p + 1))
    T[:, :, 0] = 1.0
    T[:, :, 1:] = t[rows, :, None]
    np.multiply.accumulate(T[:, :, 1:], axis=2, out=T[:, :, 1:])
    coef, sigma2, se, errors = _ls_rows(np.ones((rows.size, n)), T, W[rows])
    c_top, se_top = coef[:, p], se[:, p]
    curved = np.isfinite(se_top) & (se_top > 0.0) & (np.abs(c_top) > _CURVATURE_Z * se_top)
    curved[list(errors)] = False
    # the formula, on the rows whose curvature is significant only
    m_p = math.factorial(p) * c_top[curved]
    num = (math.factorial(p) ** 2) * np.maximum(sigma2[curved], 0.0) * kernel_l2(p)
    kappa = kernel_moment(p, p)
    den = 2.0 * p * kappa * kappa * m_p * m_p * n
    ok = (den > 0.0) & (num > 0.0)
    h_star = scale * (num[ok] / den[ok]) ** (1.0 / (2 * p + 1))
    h[rows[curved][ok]] = np.minimum(np.maximum(h_star, lo), hi)
    return h, {}
