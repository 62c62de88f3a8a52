"""Comparison estimators: OLS on the selected subsample, the two-step
parametric correction, and the two tail-mean estimators, each a body that
fits R samples of one n at once.  ``registry.fit`` runs them, and
``registry.ols_selected`` and its siblings are that fit on one sample."""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import special

from .estimator import InterceptEstimate
from .exceptions import EstimationError
from .numerics import _ls_rows, inverse_mills, normal_pdf

__all__ = [
    "TailRule",
    "OlsFit",
    "TwoStepFit",
    "probit_mle",
    "smooth_tail_weight",
]

_PROBIT_MAX_ITER = 100
_PROBIT_GTOL = 1e-10
_PROBIT_DIVERGENCE = 1e4
# A row with a signed margin below this proves the sample is not separated.
_SEPARATION_MARGIN = 4.0


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


class OlsFit(NamedTuple):
    """One OLS fit; ``_ols_rows`` returns the same record with each field
    stacked over its R rows."""

    theta: float
    beta: np.ndarray
    std_errors: np.ndarray  # for (intercept, beta)


class TwoStepFit(NamedTuple):
    """One two-step fit; ``_two_step_rows`` returns the same record with each
    field stacked over its R rows."""

    theta: float
    beta: np.ndarray
    lambda_coef: float


def _with_intercept(*columns: np.ndarray) -> np.ndarray:
    """The (R, n, p) design: a column of ones, then the (R, n, .) columns."""
    return np.concatenate([np.ones(columns[0].shape[:2] + (1,)), *columns], axis=2)


def _ols_rows(D: np.ndarray, X: np.ndarray, Y: np.ndarray):
    """OLS of each row of Y (R, n) on (1, X) over its selected observations;
    returns (OlsFit of stacked fields, errors)."""
    coef, _, std_errors, errors = _ls_rows(D, _with_intercept(X), Y)
    return OlsFit(coef[:, 0], coef[:, 1:], std_errors), errors


def _row_norms(A: np.ndarray) -> np.ndarray:
    """The 2-norm of every row of A, each bitwise ``np.linalg.norm(row)``
    (one dot product per row, as ``norm`` takes for a vector)."""
    return np.sqrt(np.vecdot(A, A))


def _solve_each(H: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Solve H[i] x = b[i] for every i; returns (x, singular), x zero in a
    singular row.  The stacked solve raises when any H[i] is singular; that
    one call is then redone a problem at a time to find which."""
    try:
        return np.linalg.solve(H, b[:, :, None])[:, :, 0], np.zeros(len(H), dtype=bool)
    except np.linalg.LinAlgError:
        x = np.zeros(b.shape)
        singular = np.zeros(len(H), dtype=bool)
        for i in range(len(H)):
            try:
                x[i] = np.linalg.solve(H[i:i + 1], b[i:i + 1, :, None])[0, :, 0]
            except np.linalg.LinAlgError:
                singular[i] = True
        return x, singular


def _separated(d: np.ndarray, xb: np.ndarray) -> bool:
    """Whether the fit classifies every row perfectly: an essentially-zero
    deviance, i.e. a log-likelihood above -1e-6.  Every term of that sum is
    <= 0, so one row whose signed margin (xb where d = 1, -xb where d = 0)
    is below 4 already puts it below log Phi(4) = -3.2e-5; only a sample
    without such a row needs the sum."""
    if np.any(np.where(d == 1.0, xb, -xb) < _SEPARATION_MARGIN):
        return False
    loglik = float(d @ special.log_ndtr(xb) + (1.0 - d) @ special.log_ndtr(-xb))
    return loglik > -1e-6


def _probit_newton(D: np.ndarray, Z: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Probit MLE of each row of D (R, n) on its Z (R, n, l): Newton with the
    analytic Hessian, the R problems stacked into each step's products.

    Returns (G, failed), G of shape (R, l), NaN in a failed row.  A problem
    fails on a constant outcome, a singular Hessian, divergence (a
    non-finite coefficient or norm > 1e4), a score norm still >= 1e-6 after
    the last step, or separation.  A problem leaves the arithmetic once it
    has converged or failed, and each step does the same per-problem
    products as for R = 1, so a row does not depend on the rest of its
    stack.
    """
    # the separation test's short-circuit holds for 0/1 outcomes only
    if not np.all((D == 0.0) | (D == 1.0)):
        raise ValueError("probit outcome must be 0/1")
    R, _, l = Z.shape
    G = np.zeros((R, l))
    failed = D.min(axis=1) == D.max(axis=1)
    act = np.flatnonzero(~failed)  # the problems still iterating; g is theirs
    Da, Za = (D, Z) if act.size == R else (D[act], Z[act])
    g = G[act]
    for _ in range(_PROBIT_MAX_ITER):
        if act.size == 0:
            break
        xb = (Za @ g[:, :, None])[:, :, 0]
        # np.maximum/np.minimum clip as np.clip does, at less call overhead
        cdf = np.minimum(np.maximum(special.ndtr(xb), 1e-300), 1.0 - 1e-16)
        pdf = normal_pdf(xb)
        lam1 = pdf / cdf
        lam0 = pdf / np.maximum(1.0 - cdf, 1e-300)
        score = (Za.swapaxes(1, 2) @ (Da * lam1 - (1.0 - Da) * lam0)[:, :, None])[:, :, 0]
        wdiag = Da * lam1 * (xb + lam1) + (1.0 - Da) * lam0 * (lam0 - xb)
        H = (Za * np.maximum(wdiag, 1e-300)[:, :, None]).swapaxes(1, 2) @ Za
        step, diverged = _solve_each(H, score)
        g = g + step
        diverged |= ~np.isfinite(g).all(axis=1) | (_row_norms(g) > _PROBIT_DIVERGENCE)
        score_norm = _row_norms(score)
        stop = diverged | (score_norm < _PROBIT_GTOL)
        if stop.any():
            G[act[stop]] = g[stop]
            failed[act[diverged]] = True
            act, g, score_norm = act[~stop], g[~stop], score_norm[~stop]
            Da, Za = D[act], Z[act]
    else:
        # out of steps: fail unless the score is in the flat tail
        G[act] = g
        failed[act[score_norm >= 1e-6]] = True
    # a perfectly classifying fit means the MLE does not exist
    ok = np.flatnonzero(~failed)
    Do, Zo = (D, Z) if ok.size == R else (D[ok], Z[ok])
    xb = (Zo @ G[ok][:, :, None])[:, :, 0]
    for i, r in enumerate(ok):
        failed[r] = _separated(Do[i], xb[i])
    G[failed] = np.nan
    return G, failed


def probit_mle(d: np.ndarray, Z: np.ndarray) -> np.ndarray:
    """Probit MLE of d (0/1) on Z (no added constant; a 1-d Z is one
    column), Newton with analytic Hessian.

    Raises "probit failed" on divergence (coefficient norm > 1e4), separation
    or a degenerate outcome, and ValueError for a d that is not 0/1.
    """
    d = np.asarray(d, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if Z.ndim == 1:
        Z = Z[:, None]
    G, failed = _probit_newton(d[None], Z[None])
    if failed[0]:
        raise EstimationError("probit failed")
    return G[0]


def _two_step_rows(D: np.ndarray, X: np.ndarray, Y: np.ndarray, Z: np.ndarray):
    """The two-step of each row of D and Y (R, n), X (R, n, k), Z (R, n, l):
    the stacked probit of D on Z, then least squares of Y on (1, X,
    lambda(Z gamma)) over the selected observations.  A row whose probit
    failed is fitted on a zero gamma and named "probit failed".  Returns
    (TwoStepFit of stacked fields, errors)."""
    G, failed = _probit_newton(D, Z)
    G[failed] = 0.0
    lam = inverse_mills((Z @ G[:, :, None])[:, :, 0])
    coef, _, _, errors = _ls_rows(D, _with_intercept(X, lam[:, :, None]), Y)
    errors.update(dict.fromkeys(np.flatnonzero(failed), "probit failed"))
    return TwoStepFit(coef[:, 0], coef[:, 1:-1], coef[:, -1]), errors


def _tail_rows(D: np.ndarray, idx: np.ndarray, W: np.ndarray, rule: TailRule, tau: np.ndarray):
    """Mean of the selection-masked residuals weighted by s(index - b_n), the
    ramp of span tau (tau = 0 gives the hard threshold 1{index > b_n}),
    with b_n the ``rule.quantile`` sample quantile of the index, for each
    row of the (R, n) arrays and its span in ``tau`` (R,).  Returns
    (InterceptEstimate of stacked fields, errors), errors mapping a failed
    row to its message."""
    b_n = np.quantile(idx, rule.quantile, axis=1)
    wd = D * smooth_tail_weight(idx - b_n[:, None], tau[:, None])
    total = wd.sum(axis=1)
    empty = total <= 0.0
    # an empty row divides by 1 instead, so it raises no warning
    total = np.where(empty, 1.0, total)
    theta = np.vecdot(wd, W) / total
    # descriptive weighted-subsample standard error; no asymptotic theory
    resid2 = (W - theta[:, None]) ** 2
    neff = total * total / np.maximum(np.vecdot(wd, wd), 1e-300)
    var = np.vecdot(wd, resid2) / total / np.maximum(neff, 1.0)
    rows = InterceptEstimate(
        theta=theta,
        std_error=np.sqrt(np.maximum(var, 0.0)),
        bandwidth=np.full(len(theta), 1.0 - rule.quantile),
        effective_n=np.count_nonzero(wd > 0.0, axis=1),
    )
    return rows, dict.fromkeys(np.flatnonzero(empty), "empty tail")


def smooth_tail_weight(u, tau):
    """Ramp weight: 0 for u <= 0, 1 - exp(-u/(tau - u)) on (0, tau), 1 above.

    For tau <= 0 the ramp interval is empty and the weight degenerates to the
    hard threshold 1{u > 0}.  ``tau`` may be an array broadcasting against
    ``u``, such as one span per row.
    """
    u, tau = np.broadcast_arrays(np.asarray(u, dtype=float), np.asarray(tau, dtype=float))
    s = np.zeros(u.shape)
    ramp = (u > 0.0) & (u < tau)
    ur = u[ramp]
    s[ramp] = 1.0 - np.exp(-ur / (tau[ramp] - ur))
    s[(u > 0.0) & ~ramp] = 1.0
    if s.ndim == 0:
        return float(s)
    return s


def _selected_quantile(values: np.ndarray, keep: np.ndarray, q: float) -> np.ndarray:
    """``np.quantile(values[r][keep[r]], q)`` for each row r of the (R, n)
    arrays, bitwise, and NaN in a row that keeps nothing.

    Each row is sorted with the values it drops set to +inf, so its m kept
    values come first in order.  The two order statistics around (m - 1) q
    and the weight between them follow numpy's default 'linear' method,
    including its lerp from the nearer end.  Past the last kept value both
    neighbours are that value, and the weight then changes nothing.  A row
    holding NaN sorts it last and gets NaN, as ``np.quantile`` does.
    """
    m = np.count_nonzero(keep, axis=1)
    ordered = np.sort(np.where(keep, values, np.inf), axis=1)
    virtual = (m - 1) * q
    prev = np.floor(virtual)
    gamma = virtual - prev
    last = m - 1
    rows = np.arange(len(m))
    lo = ordered[rows, np.minimum(prev, last).astype(np.intp)]
    hi = ordered[rows, np.minimum(prev + 1.0, last).astype(np.intp)]
    # a row without a quantile interpolates zeros, so it raises no warning
    void = (m == 0) | np.isnan(ordered[:, -1])
    lo[void] = hi[void] = 0.0
    diff = hi - lo
    out = lo + diff * gamma
    np.subtract(hi, diff * (1.0 - gamma), out=out, where=gamma >= 0.5)
    out[void] = np.nan
    return out


def _as98_rows(D: np.ndarray, idx: np.ndarray, W: np.ndarray, rule: TailRule):
    """as98's fit of each row: the tail mean with tau the ``rule.tau_quantile``
    quantile of the row's selected index values.  A row without a selected
    observation has no tau, and its tail is empty."""
    return _tail_rows(D, idx, W, rule, _selected_quantile(idx, D > 0.5, rule.tau_quantile))
