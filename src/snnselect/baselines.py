"""Comparison estimators: OLS on the selected subsample, the two-step
parametric correction, and the two tail-mean estimators, each a body that
fits R samples of one n at once.  ``registry.fit`` runs them, and
``registry.ols_selected`` and its siblings are that fit on one sample."""
from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .estimator import InterceptEstimate
from .exceptions import EstimationError
from .numerics import _ls_rows, _special, inverse_mills, normal_pdf

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
# A fit from a start is the k-step estimator: k Newton steps, which keep the
# fully iterated fit's higher-order accuracy from k = 2 (Davidson & MacKinnon
# 1999; Andrews 2002).  It ends there when its k-th step moved no index by
# _START_SETTLED or more.  On a separated sample a step moves the closest
# row's index by about 1/margin, above 0.2 until every margin passes 5, where
# _separated holds; a larger move may mark a sample without an MLE, so that
# fit iterates on as one from zero does.
_PROBIT_START_STEPS = 2
_START_SETTLED = 0.1


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


def _separated(D: np.ndarray, xb: np.ndarray) -> np.ndarray:
    """Whether each fit of the (R, n) outcomes and indices classifies every
    observation perfectly: an essentially-zero deviance, i.e. a
    log-likelihood above -1e-6.  Every term of that sum is <= 0, so one
    observation whose signed margin (xb where d = 1, -xb where d = 0) is
    below 4 already puts it below log Phi(4) = -3.2e-5; only a sample
    without such an observation needs the sum."""
    separated = np.where(D == 1.0, xb, -xb).min(axis=1) >= _SEPARATION_MARGIN
    if separated.any():
        log_ndtr = _special().log_ndtr
        separated &= np.vecdot(D, log_ndtr(xb)) + np.vecdot(1.0 - D, log_ndtr(-xb)) > -1e-6
    return separated


def _probit_newton(D: np.ndarray, Z: np.ndarray,
                   G0: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Probit MLE of each row of D (R, n) on its Z (R, n, l): Newton with the
    analytic Hessian, the R problems stacked into each step's products.  D
    holds 0/1 outcomes, as a Dataset's or ``probit_mle``'s checked d does.

    Returns (G, failed), G of shape (R, l), NaN in a failed row.  A problem
    fails on a constant outcome, a singular Hessian, divergence (a
    non-finite coefficient or norm > 1e4), a score norm still >= 1e-6 after
    the last step, or separation.  A problem leaves the arithmetic once it
    has converged or failed, and each step does the same per-problem
    products as for R = 1, so a row does not depend on the rest of its
    stack.

    Newton starts at zero, or at row r of ``G0`` (R, l) for problem r.  A
    problem with a start is the k-step estimator: it has no score test for
    its first ``_PROBIT_START_STEPS`` steps, and ends after the last of them
    when that step moved no observation's index by ``_START_SETTLED`` or
    more.  Otherwise it iterates on under the rules above, so a sample
    without an MLE still fails on divergence or separation.
    """
    R, _, l = Z.shape
    G = np.zeros((R, l)) if G0 is None else np.array(G0, dtype=float)
    failed = D.min(axis=1) == D.max(axis=1)
    act = np.flatnonzero(~failed)  # the problems still iterating; g is theirs
    Da, Za = (D, Z) if act.size == R else (D[act], Z[act])
    g = G[act]
    k = 0 if G0 is None else _PROBIT_START_STEPS
    for it in range(1, _PROBIT_MAX_ITER + 1):
        if act.size == 0:
            break
        xb = (Za @ g[:, :, None])[:, :, 0]
        # np.maximum/np.minimum clip as np.clip does, at less call overhead
        cdf = np.minimum(np.maximum(_special().ndtr(xb), 1e-300), 1.0 - 1e-16)
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
        if it > k:
            stop = diverged | (score_norm < _PROBIT_GTOL)
        elif it == k:
            moved = np.abs((Za @ step[:, :, None])[:, :, 0]).max(axis=1)
            stop = diverged | (moved < _START_SETTLED)
        else:
            stop = diverged
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
    failed[ok] = _separated(Do, (Zo @ G[ok][:, :, None])[:, :, 0])
    G[failed] = np.nan
    return G, failed


def probit_mle(d: np.ndarray, Z: np.ndarray, start: np.ndarray | None = None) -> np.ndarray:
    """Probit MLE of d (0/1) on Z (no added constant; a 1-d Z is one
    column), Newton with analytic Hessian from zero, or the k-step estimate
    from ``start`` (l,) (``_probit_newton``).

    Raises "probit failed" on divergence (coefficient norm > 1e4), separation
    or a degenerate outcome, and ValueError for a d that is not 0/1, a d and
    Z of different lengths, or a non-finite Z.
    """
    d = np.asarray(d, dtype=float)
    Z = np.asarray(Z, dtype=float)
    if Z.ndim == 1:
        Z = Z[:, None]
    if d.ndim != 1 or Z.ndim != 2 or d.shape[0] != Z.shape[0]:
        raise ValueError(f"probit outcome of shape {d.shape} does not match "
                         f"regressors of shape {Z.shape}")
    if not np.isfinite(Z).all():
        raise ValueError("probit regressors must be finite")
    # the separation test's short-circuit holds for 0/1 outcomes only
    if not np.all((d == 0.0) | (d == 1.0)):
        raise ValueError("probit outcome must be 0/1")
    G0 = None if start is None else np.asarray(start, dtype=float)[None]
    G, failed = _probit_newton(d[None], Z[None], G0)
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
    neighbours are that value, and the weight then changes nothing.
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
    void = m == 0
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
