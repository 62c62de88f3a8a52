"""Comparison estimators: OLS on the selected subsample, the two-step
parametric correction, and the two tail-mean estimators."""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .data import Dataset
from .estimator import InterceptEstimate, residualized_outcome
from .exceptions import EstimationError
from .numerics import inverse_mills, normal_pdf

__all__ = [
    "TailRule",
    "OlsFit",
    "TwoStepFit",
    "ols_selected",
    "probit_mle",
    "heckman_two_step",
    "h90_intercept",
    "as98_intercept",
    "smooth_tail_weight",
]

_PROBIT_MAX_ITER = 100
_PROBIT_GTOL = 1e-10
_PROBIT_DIVERGENCE = 1e4


@dataclass(frozen=True)
class TailRule:
    """Quantile settings for the tail-mean estimators.

    ``quantile`` sets the threshold b_n as that sample quantile of the
    selection index; ``tau_quantile`` sets the smoothing span tau (as a
    sample quantile of the index) for the smooth-weighted variant.
    """

    quantile: float = 0.95
    tau_quantile: float = 0.5

    def __post_init__(self) -> None:
        if not 0.0 < self.quantile < 1.0:
            raise ValueError("tail quantile must be in (0, 1)")
        if not 0.0 < self.tau_quantile < 1.0:
            raise ValueError("tau quantile must be in (0, 1)")


@dataclass(frozen=True)
class OlsFit:
    theta: float
    beta: np.ndarray
    std_errors: np.ndarray  # for (intercept, beta)


@dataclass(frozen=True)
class TwoStepFit:
    theta: float
    beta: np.ndarray
    lambda_coef: float


def _lstsq_full_rank(A: np.ndarray, b: np.ndarray) -> np.ndarray:
    coef, _, rank, _ = np.linalg.lstsq(A, b, rcond=None)
    if rank < A.shape[1]:
        raise EstimationError("singular design")
    return coef


def ols_selected(data: Dataset) -> OlsFit:
    """Least squares of y on (1, X) over the selected subsample."""
    sel = data.selected()
    m = int(sel.sum())
    if m <= data.k + 1:
        raise EstimationError("insufficient selected observations")
    A = np.column_stack([np.ones(m), data.X[sel]])
    coef = _lstsq_full_rank(A, data.y[sel])
    resid = data.y[sel] - A @ coef
    dof = max(m - A.shape[1], 1)
    s2 = float(resid @ resid) / dof
    cov = s2 * np.linalg.inv(A.T @ A)
    return OlsFit(theta=float(coef[0]), beta=coef[1:], std_errors=np.sqrt(np.diag(cov)))


def probit_mle(d: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Probit MLE of d on Z (no added constant; a 1-d Z is one column), Newton
    with analytic Hessian.

    Raises "probit failed" on divergence (coefficient norm > 1e4), separation
    or a degenerate outcome.
    """
    d = np.asarray(d, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if Z.ndim == 1:
        Z = Z[:, None]
    if d.min() == d.max():
        raise EstimationError("probit failed")

    def separated(xb: np.ndarray) -> bool:
        # essentially-zero deviance means a perfectly classifying fit
        loglik = float(d @ special.log_ndtr(xb) + (1.0 - d) @ special.log_ndtr(-xb))
        return loglik > -1e-6

    g = np.zeros(Z.shape[1])
    for _ in range(_PROBIT_MAX_ITER):
        xb = Z @ g
        cdf = np.clip(special.ndtr(xb), 1e-300, 1.0 - 1e-16)
        pdf = normal_pdf(xb)
        lam1 = pdf / cdf
        lam0 = pdf / np.clip(1.0 - cdf, 1e-300, None)
        score = Z.T @ (d * lam1 - (1.0 - d) * lam0)
        wdiag = d * lam1 * (xb + lam1) + (1.0 - d) * lam0 * (lam0 - xb)
        H = (Z * np.clip(wdiag, 1e-300, None)[:, None]).T @ Z
        try:
            step = np.linalg.solve(H, score)
        except np.linalg.LinAlgError:
            raise EstimationError("probit failed") from None
        g = g + step
        if not np.all(np.isfinite(g)) or np.linalg.norm(g) > _PROBIT_DIVERGENCE:
            raise EstimationError("probit failed")
        if np.linalg.norm(score) < _PROBIT_GTOL:
            break
    else:
        if np.linalg.norm(score) >= 1e-6:  # not even in the flat tail
            raise EstimationError("probit failed")
    # a perfectly classifying fit means the MLE does not exist
    if separated(Z @ g):
        raise EstimationError("probit failed")
    return g


def heckman_two_step(data: Dataset) -> TwoStepFit:
    """Two-step correction: probit of d on Z, then least squares of y on
    (1, X, lambda(Z'gamma)) over the selected subsample."""
    gamma = probit_mle(data.d, data.Z)
    lam = inverse_mills(data.Z @ gamma)
    sel = data.selected()
    m = int(sel.sum())
    if m <= data.k + 2:
        raise EstimationError("insufficient selected observations")
    A = np.column_stack([np.ones(m), data.X[sel], lam[sel]])
    coef = _lstsq_full_rank(A, data.y[sel])
    return TwoStepFit(
        theta=float(coef[0]),
        beta=coef[1:-1],
        lambda_coef=float(coef[-1]),
    )


def _tail_mean(
    data: Dataset, beta: np.ndarray, idx: np.ndarray, rule: TailRule, tau: float
) -> InterceptEstimate:
    """Mean of the selection-masked residuals weighted by s(index - b_n), the
    ramp of span ``tau`` (tau = 0 gives the hard threshold 1{index > b_n}),
    with b_n the ``rule.quantile`` sample quantile of the index."""
    b_n = float(np.quantile(idx, rule.quantile))
    W = residualized_outcome(data, beta)
    wd = data.d * smooth_tail_weight(idx - b_n, tau)
    total = float(wd.sum())
    if total <= 0.0:
        raise EstimationError("empty tail")
    theta = float(wd @ W) / total
    # descriptive weighted-subsample standard error; no asymptotic theory
    resid2 = (W - theta) ** 2
    neff = total * total / max(float(wd @ wd), 1e-300)
    var = float(wd @ resid2) / total / max(neff, 1.0)
    return InterceptEstimate(
        theta=theta,
        std_error=math.sqrt(max(var, 0.0)),
        bandwidth=1.0 - rule.quantile,
        effective_n=int(np.count_nonzero(wd > 0.0)),
    )


def h90_intercept(
    data: Dataset, beta: np.ndarray, gamma: np.ndarray, rule: TailRule | None = None
) -> InterceptEstimate:
    """Mean of the selection-masked residuals over the selected upper tail
    of the index (hard threshold at the ``rule.quantile`` sample quantile):
    the tau = 0 case of ``as98_intercept``'s weighting."""
    return _tail_mean(data, beta, data.Z @ gamma, rule or TailRule(), 0.0)


def smooth_tail_weight(u, tau: float):
    """Ramp weight: 0 for u <= 0, 1 - exp(-u/(tau - u)) on (0, tau), 1 above.

    For tau <= 0 the ramp interval is empty and the weight degenerates to the
    hard threshold 1{u > 0}.
    """
    u = np.asarray(u, dtype=float)
    s = np.zeros(u.shape)
    if tau > 0.0:
        ramp = (u > 0.0) & (u < tau)
        ur = u[ramp]
        s[ramp] = 1.0 - np.exp(-ur / (tau - ur))
        s[u >= tau] = 1.0
    else:
        s[u > 0.0] = 1.0
    if s.ndim == 0:
        return float(s)
    return s


def as98_intercept(
    data: Dataset, beta: np.ndarray, gamma: np.ndarray, rule: TailRule | None = None
) -> InterceptEstimate:
    """Smooth-weighted tail mean: weights s(index - b_n) ramp from 0 to 1
    over a span tau set to the ``rule.tau_quantile`` quantile of the index
    over the selected subsample (only selected observations carry weight).
    tau <= 0 reduces to the hard-threshold tail mean."""
    rule = rule or TailRule()
    idx = data.Z @ gamma
    sel = data.selected()
    if not np.any(sel):
        raise EstimationError("empty tail")
    return _tail_mean(data, beta, idx, rule, float(np.quantile(idx[sel], rule.tau_quantile)))
