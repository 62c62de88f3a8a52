"""Independent brute-force oracles used to pin expected values.

Every function here recomputes a quantity by the most direct route possible
(double loops, explicit normal equations, textbook formulas) so the fast
implementations can be checked against an independent path.
"""
from __future__ import annotations

import csv
import math

import numpy as np
from scipy import special


def eta_hat_bruteforce(Z: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """O(n^2) rank transform straight from the defining double sum."""
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    gamma = np.asarray(gamma, dtype=float)
    n = Z.shape[0]
    out = np.empty(n)
    for i in range(n):
        count = 0
        for j in range(n):
            if (Z[j] - Z[i]) @ gamma <= 0.0:
                count += 1
        out[i] = count / n
    return out


def epanechnikov2(u: np.ndarray) -> np.ndarray:
    u = np.asarray(u, dtype=float)
    return np.where(np.abs(u) <= 1.0, 0.75 * (1.0 - u * u), 0.0)


def snn_bruteforce(d, y, X, Z, beta, gamma, h: float) -> float:
    """Boundary locally linear fit via explicit matrix normal equations."""
    d = np.asarray(d, dtype=float)
    y = np.asarray(y, dtype=float)
    X = np.atleast_2d(np.asarray(X, dtype=float))
    W = d * (y - X @ np.asarray(beta, dtype=float))
    eta = eta_hat_bruteforce(Z, gamma)
    t = eta - 1.0
    K = epanechnikov2(t / h)
    S = np.column_stack([np.ones_like(t), t])
    M = S.T @ (S * K[:, None])
    b = S.T @ (K * W)
    sol = np.linalg.solve(M, b)
    return float(sol[0])


def ols_bruteforce(y: np.ndarray, X: np.ndarray):
    """Intercept-plus-slopes least squares via explicit normal equations."""
    A = np.column_stack([np.ones(len(y)), X])
    coef = np.linalg.solve(A.T @ A, A.T @ y)
    return float(coef[0]), coef[1:]


def h90_bruteforce(d, W, index, b_n: float) -> float:
    num = den = 0.0
    for i in range(len(d)):
        if d[i] > 0.5 and index[i] > b_n:
            num += W[i]
            den += 1.0
    return num / den


def as98_bruteforce(d, W, index, b_n: float, tau: float) -> float:
    num = den = 0.0
    for i in range(len(d)):
        u = index[i] - b_n
        if u <= 0.0:
            s = 0.0
        elif tau > 0.0 and u < tau:
            s = 1.0 - math.exp(-u / (tau - u))
        elif tau > 0.0 and u >= tau:
            s = 1.0
        else:
            s = 1.0
        num += d[i] * s * W[i]
        den += d[i] * s
    return num / den


def mse_optimal_bandwidth(sigma2: float, m_p: float, n: int, p: int = 2,
                          l2: float = 0.6, kappa: float = 0.2) -> float:
    """Direct evaluation of the MSE-optimal bandwidth formula."""
    num = (math.factorial(p) ** 2) * sigma2 * l2
    den = 2 * p * (kappa ** 2) * (m_p ** 2) * n
    return (num / den) ** (1.0 / (2 * p + 1))


def loo_nw_bruteforce(index, values, h: float):
    """Leave-one-out Nadaraya-Watson smooth, one row at a time, each from a
    direct sum of its nonnegative kernel weights over the other rows."""
    index = np.asarray(index, dtype=float)
    V = np.atleast_2d(np.asarray(values, dtype=float))
    if V.shape[0] != index.shape[0]:
        V = V.T
    n = index.shape[0]
    est = np.zeros_like(V)
    valid = np.zeros(n, dtype=bool)
    for i in range(n):
        k = 0.75 * (1.0 - ((index - index[i]) / h) ** 2)
        k[i] = 0.0
        k[k < 0.0] = 0.0
        den = k.sum()
        if den > 1e-10:
            est[i] = k @ V / den
            valid[i] = True
    return est, valid


def ks_loglik_bruteforce(d, Z, gamma, h: float, clip: float = 1e-4):
    """Klein-Spady leave-one-out quasi-log-likelihood and its gradient in
    gamma[1:], one row at a time, each from direct sums over the other rows
    that differentiate each kernel weight.

    A row whose window holds no other point takes the clipped sample mean, a
    probability outside [clip, 1 - clip] is clipped; both add 0 to the
    gradient.
    """
    d = np.asarray(d, dtype=float)
    Z = np.atleast_2d(np.asarray(Z, dtype=float))
    x = Z @ np.asarray(gamma, dtype=float)
    n, l = Z.shape
    fallback = min(max(float(d.mean()), clip), 1.0 - clip)
    value = 0.0
    grad = np.zeros(l - 1)
    for i in range(n):
        u = (x - x[i]) / h
        k = 0.75 * (1.0 - u * u)
        w = k > 0.0
        w[i] = False
        k = k[w]
        dk = (-1.5 * u[w] / h)[:, None] * (Z[w, 1:] - Z[i, 1:])
        den = k.sum()
        if den > 1e-10:
            p = k @ d[w] / den
            dp = (d[w] @ dk - p * dk.sum(axis=0)) / den
        else:
            p = fallback
            dp = np.zeros(l - 1)
        if not clip < p < 1.0 - clip:
            p = min(max(p, clip), 1.0 - clip)
            dp = np.zeros(l - 1)
        value += d[i] * math.log(p) + (1.0 - d[i]) * math.log(1.0 - p)
        grad += (d[i] / p - (1.0 - d[i]) / (1.0 - p)) * dp
    return value, grad


def save_csv_cellwise(path, data, schema) -> None:
    """Dataset to CSV one cell at a time: ``format(x, ".17g")`` through csv.writer."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(schema.required_columns())
        for i in range(data.n):
            row = [data.d[i], data.y[i], *data.X[i], *data.Z[i]]
            writer.writerow([format(float(x), ".17g") for x in row])


def _lstsq_on_selected(data, A):
    """``lstsq`` of y on the design A over the selected rows, full rank or
    the reason it is refused; the classical SEs from inv(A'A)."""
    sel = data.selected()
    A, y = A[sel], data.y[sel]
    if len(y) <= A.shape[1]:
        return None, None, "insufficient selected observations"
    coef, _, rank, _ = np.linalg.lstsq(A, y, rcond=None)
    if rank < A.shape[1]:
        return None, None, "singular design"
    resid = y - A @ coef
    s2 = float(resid @ resid) / max(len(y) - A.shape[1], 1)
    return coef, np.sqrt(np.diag(s2 * np.linalg.inv(A.T @ A))), None


def ols_lstsq(data):
    """OLS of y on (1, X) over the selected subsample, one draw through
    ``lstsq``: (coef, std_errors, reason), the arrays None when refused."""
    return _lstsq_on_selected(data, np.column_stack([np.ones(data.n), data.X]))


def two_step_lstsq(data, gamma):
    """The two-step's second stage on a first-stage ``gamma`` (None when the
    probit failed), one draw through ``lstsq``: (coef, reason), coef
    (intercept, beta, lambda coefficient)."""
    if gamma is None:
        return None, "probit failed"
    lam = math.sqrt(2.0 / math.pi) / special.erfcx(-(data.Z @ gamma) / math.sqrt(2.0))
    coef, _, reason = _lstsq_on_selected(data, np.column_stack([np.ones(data.n), data.X, lam]))
    return coef, reason


def polynomial_pilot(t: np.ndarray, W: np.ndarray, degree: int):
    """Global least-squares polynomial fit of W on t through ``lstsq``.

    Returns (coef, sigma2, se_top) where ``se_top`` is the classical standard
    error of the leading (degree-th) coefficient from inv(T'T); a rank
    deficient fit gives sigma2 NaN and se_top inf.
    """
    T = np.vander(t, degree + 1, increasing=True)
    coef, _, rank, _ = np.linalg.lstsq(T, W, rcond=None)
    if rank < degree + 1:
        return coef, float("nan"), float("inf")
    resid = W - T @ coef
    dof = max(t.shape[0] - (degree + 1), 1)
    sigma2 = float(resid @ resid) / dof
    gram_inv = np.linalg.inv(T.T @ T)
    se_top = math.sqrt(max(sigma2 * gram_inv[degree, degree], 0.0))
    return coef, sigma2, se_top


def pilot_bandwidth(t: np.ndarray, W: np.ndarray, p: int, scale: float,
                    clamp: tuple[float, float] = (0.05, 2.0), z: float = 3.5):
    """The plug-in bandwidth of one row whose tail gate passed, one scalar
    step at a time from ``polynomial_pilot``: (h, formula), ``formula``
    False where the pilot's curvature is insignificant (|c_p| <= z * se) or
    the formula's terms are not positive, and h then the upper clamp."""
    lo, hi = clamp
    coef, sigma2, se_top = polynomial_pilot(t, W, p)
    c_top = float(coef[p])
    if not (math.isfinite(se_top) and se_top > 0.0 and abs(c_top) > z * se_top):
        return hi, False
    kappa = 0.2 if p == 2 else -1.0 / 21.0
    l2 = 0.6 if p == 2 else 1.25
    num = (math.factorial(p) ** 2) * max(sigma2, 0.0) * l2
    den = 2.0 * p * kappa * kappa * (math.factorial(p) * c_top) ** 2 * t.shape[0]
    if den <= 0.0 or num <= 0.0:
        return hi, False
    return min(max(scale * (num / den) ** (1.0 / (2 * p + 1)), lo), hi), True
