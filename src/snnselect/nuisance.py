"""Nuisance-parameter estimation for empirical data.

Selection coefficients come from a probit fit (parametric) or a
semiparametric binary-choice quasi-likelihood; outcome slopes come from the
double-residual (partially linear) regression.  Both smooth on one
leave-one-out Epanechnikov engine, O(n log n) over the sorted index:
``_sorted_windows``, ``_loo_kernel_sums`` and ``_loo_ratio``.  The engine's
window sums write into work arrays their caller allocates.  Robinson's
smoother makes no sorted copy of the values it smooths: it gathers one
column at a time in index order, into work arrays of n that all its columns
share, so beyond its (1 + m, n) kernel sums and its (n, m) estimates it
holds a few arrays of n.  A Klein-Spady fit
allocates the large arrays of an evaluation once, about 4.8 MB at n = 4000
and l = 7, and every evaluation of the fit writes into them: arrays of that
size, freed and allocated again, come back from the C allocator as fresh
pages, about 950 page faults per evaluation.

``scipy.optimize`` is imported inside ``klein_spady_gamma``, its only user,
so importing the package, and every path that fits no Klein-Spady nuisance
(the probit nuisance, the generating values, OLS and the two-step), never
loads it.  A process pays for that import, about 0.2 s and 22 MB, on its
first Klein-Spady fit.  The probit, where the Klein-Spady fit starts, reaches
``scipy.special`` through ``numerics._special``, so the first probit of a
process that has not loaded it yet pays about 0.25 s and 19 MB more; the
generating values and Robinson's regression need neither module.  In
memory the probit is the larger step: at n = 1e5, Robinson's regression
allocates less at its peak than the probit fit before it.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .baselines import probit_mle
from .data import Dataset
from .exceptions import EstimationError

__all__ = [
    "GAMMA_METHODS",
    "NuisanceEstimates",
    "fit_nuisance",
    "probit_gamma",
    "klein_spady_gamma",
    "klein_spady_objective",
    "robinson_beta",
    "silverman_bandwidth",
]

# The selection-coefficient fits that fit_nuisance offers, by name.
GAMMA_METHODS = ("klein_spady", "probit")

_PROB_CLIP = 1e-4
_SILVERMAN_C = 1.06


@dataclass(frozen=True)
class NuisanceEstimates:
    beta: np.ndarray
    gamma: np.ndarray  # first component exactly 1 or -1

    def __post_init__(self) -> None:
        beta = np.asarray(self.beta, dtype=float)
        gamma = np.asarray(self.gamma, dtype=float)
        if abs(gamma[0]) != 1.0:
            raise ValueError("gamma must be normalized with first component 1 or -1")
        if not (np.all(np.isfinite(beta)) and np.all(np.isfinite(gamma))):
            raise ValueError("nuisance estimates must be finite")
        object.__setattr__(self, "beta", beta)
        object.__setattr__(self, "gamma", gamma)


def fit_nuisance(data: Dataset, gamma_method: str = "klein_spady",
                 start: np.ndarray | None = None) -> NuisanceEstimates:
    """Selection coefficients then Robinson outcome slopes; every nuisance
    fit in the package goes through here.  ``start`` is ``probit_gamma``'s,
    for the probit alone (ValueError with ``klein_spady``)."""
    if gamma_method not in GAMMA_METHODS:
        raise ValueError(f"unknown gamma method {gamma_method!r}; valid: {GAMMA_METHODS}")
    if start is not None and gamma_method != "probit":
        raise ValueError("a start is for the probit nuisance")
    gamma = probit_gamma(data, start) if gamma_method == "probit" else klein_spady_gamma(data)
    beta = robinson_beta(data, gamma)
    return NuisanceEstimates(beta=beta, gamma=gamma)


def silverman_bandwidth(index: np.ndarray) -> float:
    """Rule-of-thumb pilot 1.06 * scale * n^(-1/5), robust scale via the IQR."""
    index = np.asarray(index, dtype=float)
    n = index.shape[0]
    q25, q75 = np.quantile(index, [0.25, 0.75])
    iqr = float(q75 - q25)
    scale = min(float(index.std()), iqr / 1.349) if iqr > 0 else float(index.std())
    if scale <= 0.0:
        raise EstimationError("degenerate index")
    return _SILVERMAN_C * scale * n ** (-0.2)


def _stable_order(x: np.ndarray) -> np.ndarray:
    """``np.argsort(x, kind="stable")``, bit for bit, from the default sort.
    Only rows of equal value can come out of it in another order, so when
    the sorted values hold a tie the order is sorted again by (tie run,
    position), as one sort of distinct integer keys.  NaNs sort last and
    equal nothing, so an ``x`` with a NaN takes the stable sort itself."""
    order = np.argsort(x)
    xs = x[order]
    if np.isnan(xs[-1:]).any():
        return np.argsort(x, kind="stable")
    tie = xs[1:] == xs[:-1]
    if tie.any():
        n = x.shape[0]
        run = np.concatenate(([0], np.cumsum(~tie)))
        order = np.sort(run * n + order) % n
    return order


def _window_work(shape: tuple):
    """Work arrays for ``window_sums`` of a stack of ``shape`` (last axis:
    sorted rows): its prefix sums, whose first entry stays 0, and the
    gather of each row's lower window bound."""
    return np.zeros(shape[:-1] + (shape[-1] + 1,)), np.empty(shape)


def _sorted_windows(index: np.ndarray, h: float):
    """Median-centre and stable-sort ``index`` and bound each row's open
    window |x_j - x_i| < h (the kernel is 0 on its edge).  Returns (order,
    xs, window_sums, in_window), where ``window_sums(cols, out, work)`` sums
    each column of a stack (last axis: sorted rows) over every row's window,
    from one cumsum over the whole stack, into ``out``, with ``work`` from
    ``_window_work`` of its shape, and returns ``out``.  ``in_window`` flags the
    sorted rows whose window holds another row.  That flag is a count of
    rows, exact where a kernel sum is not: a sum is the difference of two
    prefix sums over the whole sample, which on a heavy-tailed index reach
    1e13, so for a far-tail row with an empty window it is rounding noise,
    not 0.
    """
    x = np.asarray(index, dtype=float)
    x = x - np.median(x)  # limits cancellation in the x^2 prefix sums
    order = _stable_order(x)
    xs = x[order]
    lo = np.searchsorted(xs, xs - h, side="right")
    hi = np.searchsorted(xs, xs + h, side="left")

    def window_sums(cols: np.ndarray, out: np.ndarray, work) -> np.ndarray:
        prefix, lower = work
        np.cumsum(cols, axis=-1, out=prefix[..., 1:])
        # mode="clip" (every index is in range) writes straight into out=,
        # where "raise" would gather into a fresh copy first
        np.take(prefix, hi, axis=-1, out=out, mode="clip")
        np.take(prefix, lo, axis=-1, out=lower, mode="clip")
        out -= lower
        return out

    return order, xs, window_sums, hi - lo > 1


def _loo_kernel_sums(xs: np.ndarray, h: float, s0, s1, s2, b) -> np.ndarray:
    """sum_{j != i} K((x_j - x_i)/h) b_j from the window sums s0, s1, s2 of
    b, x b and x^2 b: the Epanechnikov polynomial expanded, the self term
    K(0) b_i dropped."""
    hh = h * h
    return 0.75 * ((1.0 - xs * xs / hh) * s0 + (2.0 * xs / hh) * s1 - s2 / hh) - 0.75 * b


def _loo_ratio(kern: np.ndarray, in_window: np.ndarray):
    """Rows 1.. of the (nb, n) kernel sums over row 0, the sums for b = 1,
    and the valid rows (ratio 0 elsewhere): those whose window holds another
    row, by ``_sorted_windows``' count, and whose kernel sum is above
    rounding.  The sum test alone passes an empty window whose sum is noise;
    the count alone passes a window whose other rows all sit on its edge
    (index values h apart on a grid), whose sum is noise near 0."""
    valid = in_window & (kern[0] > 1e-10)
    ratio = np.divide(kern[1:], kern[0], out=np.zeros((kern.shape[0] - 1, kern.shape[1])),
                      where=valid)
    return ratio, valid


def _loo_epanechnikov(index: np.ndarray, values: np.ndarray, h: float):
    """Leave-one-out Nadaraya-Watson smooth of each column of the (n, m)
    array ``values`` on the (n,) ``index``.

    Returns (estimates, valid) where ``valid`` flags rows whose window holds
    at least one other observation with positive weight.
    """
    order, xs, window_sums, in_window = _sorted_windows(index, h)
    values = np.asarray(values, dtype=float)
    n = xs.shape[0]
    # column by column and one window sum at a time, into work arrays that
    # every column shares, so no sorted copy of ``values`` is made and the
    # work arrays stay a few n long
    b, xb, sums, work = np.empty(n), np.empty(n), np.empty((3, n)), _window_work((n,))
    kern = np.empty((1 + values.shape[1], n))
    for j in range(kern.shape[0]):
        if j == 0:
            b[:] = 1.0
        else:
            np.take(values[:, j - 1], order, out=b, mode="clip")
        window_sums(b, sums[0], work)
        window_sums(np.multiply(b, xs, out=xb), sums[1], work)
        xb *= xs
        window_sums(xb, sums[2], work)
        kern[j] = _loo_kernel_sums(xs, h, *sums, b)
    del b, xb, sums, work  # before the ratio and the estimates are allocated
    ratio, valid_s = _loo_ratio(kern, in_window)
    del kern  # as large as est, which is allocated next
    est = np.empty(ratio.T.shape)
    valid = np.empty_like(valid_s)
    est[order] = ratio.T
    valid[order] = valid_s
    return est, valid


def probit_gamma(data: Dataset, start: np.ndarray | None = None) -> np.ndarray:
    """Probit MLE rescaled so the first component is exactly 1 or -1: its
    sign is kept, and with it the direction of the index, which the rank
    transform and the tail means read.

    With ``start``, the unnormalised probit MLE of the sample that ``data``
    resamples, the fit is instead the k-step estimate from there: two
    Newton steps with no score test, iterated on only when the second still
    moved an index by 0.1 or more (``baselines._probit_newton``).
    """
    g = probit_mle(data.d, data.Z, start)
    if abs(g[0]) <= 1e-8:
        raise EstimationError("normalization impossible")
    return g / abs(g[0])


def _ks_evaluator(data: Dataset, h: float):
    """``gamma -> (value, gradient)``: the leave-one-out quasi-log-likelihood
    at bandwidth ``h`` and its exact gradient in gamma[1:].

    Runs on ``_loo_epanechnikov``'s engine: p_i is its smooth of d, from
    the ``_sorted_windows`` sums that also give the gradient.  K'(u) = -1.5u
    is linear, so dN_i/dgamma_k = -(1.5/h^2) sum_window (x_j - x_i)(z_jk -
    z_ik) d_j expands into window sums of b, x b, z_k b and x z_k b for
    b = d (numerator) and b = 1 (denominator).  Clipped and empty-window
    fallback rows contribute 0 to the gradient.

    The arrays of (3 + 2m) or m rows of n are allocated here, once, and
    every evaluation writes into them; only arrays of a row or two of n
    are allocated per evaluation.
    """
    d, n, m = data.d, data.n, data.l - 1
    Zfree = data.Z[:, 1:]
    # columns b, x b, x^2 b, z_k b, x z_k b for b = 1 (row 0) and b = d (row 1)
    cols = np.empty((2, 3 + 2 * m, n))
    cols[0, 0] = 1.0
    W, work = np.empty(cols.shape), _window_work(cols.shape)
    # the sorted Z columns, kept (n, m) so that their mean is reduced over
    # the layout of ``Z[order, 1:]``: another layout sums in another order
    zrows = np.empty((n, m))
    cross, term = np.empty((2, m, n)), np.empty((2, m, n))
    fallback = float(np.clip(d.mean(), _PROB_CLIP, 1.0 - _PROB_CLIP))

    def evaluate(gamma: np.ndarray) -> tuple[float, np.ndarray]:
        order, xs, window_sums, in_window = _sorted_windows(data.Z @ gamma, h)
        ds = np.take(d, order, out=cols[1, 0], mode="clip")
        Zs = np.take(Zfree, order, axis=0, out=zrows, mode="clip").T
        Zs -= Zs.mean(axis=1, keepdims=True)  # differences z_j - z_i unchanged
        np.multiply(cols[:, 0], xs, out=cols[:, 1])
        np.multiply(cols[:, 1], xs, out=cols[:, 2])
        np.multiply(cols[:, None, 0], Zs, out=cols[:, 3 : 3 + m])
        np.multiply(cols[:, None, 1], Zs, out=cols[:, 3 + m :])
        window_sums(cols, W, work)
        s0, s1, sz, sxz = W[:, 0], W[:, 1], W[:, 3 : 3 + m], W[:, 3 + m :]
        kern = _loo_kernel_sums(xs, h, s0, s1, W[:, 2], cols[:, 0])
        ratio, valid = _loo_ratio(kern, in_window)

        p_s = np.where(valid, ratio[0], fallback)
        active = valid & (p_s > _PROB_CLIP) & (p_s < 1.0 - _PROB_CLIP)
        p_s = np.clip(p_s, _PROB_CLIP, 1.0 - _PROB_CLIP)
        p = np.empty(n)
        p[order] = p_s
        value = float(d @ np.log(p) + (1.0 - d) @ np.log(1.0 - p))

        # sum_window (x_j - x_i)(z_jk - z_ik) b_j, for b = 1 and b = d:
        # sxz - Zs s1 - xs sz + (xs s0) Zs, left to right, since the order
        # of the operations sets the bits
        np.multiply(Zs, s1[:, None], out=cross)
        np.subtract(sxz, cross, out=cross)
        np.subtract(cross, np.multiply(xs, sz, out=term), out=cross)
        np.add(cross, np.multiply((xs * s0)[:, None], Zs, out=term), out=cross)
        # dp_i = -(1.5/h^2) (cross_d - p_i cross_1) / D_i, weighted by dloglik/dp_i
        weight = np.zeros(n)
        pa, da = p_s[active], ds[active]
        weight[active] = (da / pa - (1.0 - da) / (1.0 - pa)) * (-1.5 / (h * h)) / kern[0, active]
        dp = np.subtract(cross[1], np.multiply(p_s, cross[0], out=term[0]), out=term[0])
        return value, dp @ weight

    return evaluate


def _ks_loglik_and_grad(
    data: Dataset, gamma: np.ndarray, h: float
) -> tuple[float, np.ndarray]:
    """One evaluation of ``_ks_evaluator(data, h)``, with arrays of its own."""
    return _ks_evaluator(data, h)(gamma)


def klein_spady_objective(
    data: Dataset, gamma: np.ndarray, bandwidth: float
) -> float:
    """Leave-one-out quasi-log-likelihood of the single-index binary choice."""
    return _ks_loglik_and_grad(data, gamma, bandwidth)[0]


def klein_spady_gamma(data: Dataset) -> np.ndarray:
    """Maximizer of the leave-one-out quasi-likelihood over {gamma: gamma_1 =
    s}, s = +-1 the sign of the normalized probit estimate.

    L-BFGS-B on the exact gradient, started at that probit estimate,
    with the Silverman pilot bandwidth of the probit index.  The objective has
    kinks (kernel edge, probability clip) and jumps (emptying windows), so the
    line search may stop abnormally: that end point is accepted when it beats
    the start, "no convergence" is raised when it does not, and a converged
    fit never returns worse than the start.  That comparison reads the values
    the optimizer computed, by the exact bytes of gamma, so no point is
    evaluated twice.  With one selection covariate gamma is the
    normalization alone.
    """
    if data.d.min() == data.d.max():
        raise EstimationError("degenerate outcome")
    if data.n < 100:
        raise EstimationError("insufficient sample")
    start = probit_gamma(data)
    if data.l == 1:
        return start
    from scipy import optimize

    evaluate = _ks_evaluator(data, silverman_bandwidth(data.Z @ start))
    values = {}  # gamma.tobytes() -> objective, for every gamma evaluated

    def loglik(gamma: np.ndarray) -> float:
        key = gamma.tobytes()
        if key not in values:
            values[key] = evaluate(gamma)[0]
        return values[key]

    def negloglik(free: np.ndarray) -> tuple[float, np.ndarray]:
        gamma = np.concatenate([start[:1], free])
        value, grad = evaluate(gamma)
        values[gamma.tobytes()] = value
        return -value, -grad

    res = optimize.minimize(negloglik, start[1:], jac=True, method="L-BFGS-B")
    best = np.concatenate([start[:1], res.x])
    # an abnormal stop still counts when it climbed above the start
    if loglik(best) > loglik(start):
        return best
    if not res.success:
        raise EstimationError("no convergence")
    return start


def robinson_beta(
    data: Dataset, gamma: np.ndarray, bandwidth: float | None = None
) -> np.ndarray:
    """Double-residual slope estimate over the selected subsample.

    Leave-one-out kernel regressions of y and of each X column on the
    selection index are removed, and the residuals are regressed on each
    other without an intercept (it is absorbed by the smoothing).
    """
    rows = np.flatnonzero(data.selected())
    if rows.size < data.k + 10:
        raise EstimationError("insufficient selected observations")
    idx = (data.Z @ gamma).take(rows)
    if bandwidth is None:
        bandwidth = silverman_bandwidth(idx)
    yX = np.column_stack((data.y.take(rows), data.X.take(rows, axis=0)))
    smooth, valid = _loo_epanechnikov(idx, yX, bandwidth)
    if int(valid.sum()) < data.k + 2:
        raise EstimationError("singular design")
    resid = (yX - smooth)[valid]
    coef, _, rank, _ = np.linalg.lstsq(resid[:, 1:], resid[:, 0], rcond=None)
    if rank < data.k:
        raise EstimationError("singular design")
    return coef
