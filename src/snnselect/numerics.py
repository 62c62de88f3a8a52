"""Smoothing kernels, their exact moments, Gaussian special functions, and
the one stacked least-squares body.

``_ls_rows`` fits the stacked least-squares problems: OLS on the selected
subsample, the two-step's second stage and the plug-in bandwidth's
polynomial pilot.  Robinson's double-residual regression and snn's local
line (``estimator._local_linear_solve``'s closed form) are fitted apart.
Everything here is a pure function of its arguments and safe to call
concurrently.

``_special`` is the package's one way to ``scipy.special``: it imports the
module on its first call, so ``import snnselect`` loads no scipy.  The exact
kernel constants (``kernel_moment``, ``kernel_l2``) are worked out in
``fractions`` arithmetic on the first call for each argument and cached, so
later calls cost a lookup.
"""
from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

__all__ = [
    "KERNEL_ORDERS",
    "eval_kernel",
    "kernel_moment",
    "kernel_l2",
    "normal_pdf",
    "inverse_mills",
]

# Coefficients of the degree-2 multiplier turning the Epanechnikov weight into
# a fourth-order kernel: (a + b u^2) * (3/4)(1 - u^2) with moment conditions
# ∫K = 1 and ∫u^2 K = 0.  Solving the 2x2 system gives a = 15/8, b = -35/8.
_EPAN4_A = 15.0 / 8.0
_EPAN4_B = -35.0 / 8.0

# A kernel is named by its order alone: order 2 is the Epanechnikov weight
# (3/4)(1 - u^2) on [-1, 1], order 4 that weight times _EPAN4_A + _EPAN4_B u^2.
KERNEL_ORDERS = (2, 4)


@functools.cache
def _special():
    """``scipy.special``, imported on the first call (about 0.25 s and 19 MB)
    and the same module object on every later one."""
    from scipy import special

    return special


def _check_order(order: int) -> None:
    if order not in KERNEL_ORDERS:
        raise ValueError("kernel order must be 2 or 4")


def eval_kernel(order: int, u):
    """Evaluate the kernel of ``order`` at ``u`` (scalar or array); zero
    outside [-1, 1]."""
    _check_order(order)
    u = np.asarray(u, dtype=float)
    base = 0.75 * (1.0 - u * u)
    if order == 4:
        base = base * (_EPAN4_A + _EPAN4_B * u * u)
    out = np.where(np.abs(u) <= 1.0, base, 0.0)
    if out.ndim == 0:
        return float(out)
    return out


@functools.cache
def _exact_integral(order: int, j: int, power: int) -> float:
    """∫ u^j K(u)^power du over [-1, 1], K the kernel of ``order`` and
    ``power`` 1 or 2, the correctly rounded exact value: K's power series on
    [-1, 1] multiplied out in rational arithmetic.  Cached, so a process
    works each constant out once."""
    _check_order(order)

    def mul(a: list, b: list) -> list:
        out = [Fraction(0)] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for k, y in enumerate(b):
                out[i + k] += x * y
        return out

    coef = [Fraction(3, 4), Fraction(0), Fraction(-3, 4)]
    if order == 4:
        coef = mul(coef, [Fraction(_EPAN4_A), Fraction(0), Fraction(_EPAN4_B)])
    if power == 2:
        coef = mul(coef, coef)
    # odd powers of u integrate to 0 over [-1, 1]
    return float(sum(2 * c / (j + k + 1) for k, c in enumerate(coef) if (j + k) % 2 == 0))


def kernel_moment(order: int, j: int) -> float:
    """∫ u^j K(u) du over [-1, 1], the correctly rounded exact value."""
    if j < 0:
        raise ValueError("moment order must be nonnegative")
    return _exact_integral(order, j, 1)


def kernel_l2(order: int) -> float:
    """∫ K(u)^2 du, the variance constant of the kernel, correctly rounded."""
    return _exact_integral(order, 0, 2)


def normal_pdf(x):
    x = np.asarray(x, dtype=float)
    out = np.exp(-0.5 * x * x) / math.sqrt(2.0 * math.pi)
    if out.ndim == 0:
        return float(out)
    return out


def inverse_mills(t):
    """Inverse Mills ratio φ(t)/Φ(t), stable for arbitrarily negative t.

    Uses λ(t) = sqrt(2/π) / erfcx(-t/√2), which avoids the 0/0 form in the
    left tail where both φ and Φ underflow.
    """
    t = np.asarray(t, dtype=float)
    out = math.sqrt(2.0 / math.pi) / _special().erfcx(-t / math.sqrt(2.0))
    if out.ndim == 0:
        return float(out)
    return out


def _ls_rows(D: np.ndarray, A: np.ndarray, Y: np.ndarray):
    """Least squares of each row of Y (R, n) on its design A (R, n, p) over
    the row's selected observations (D = 1), with classical standard errors:
    one SVD of the stacked design, each row's unselected observations zeroed.

    A row's rank counts its singular values above eps * max(m, p) * s_max,
    m its selected count, which is ``lstsq``'s rule on the selected rows.
    Returns (coef, s2, std_errors, errors): coef and std_errors (R, p), s2
    (R,) the residual variance on m - p degrees of freedom (at least 1), and
    errors mapping a row with m <= p or a rank below p to its message.
    """
    p = A.shape[2]
    m = np.count_nonzero(D, axis=1)
    A = A * D[:, :, None]
    U, s, Vt = np.linalg.svd(A, full_matrices=False)
    keep = s > (np.finfo(float).eps * np.maximum(m, p) * s[:, 0])[:, None]
    # V / s: coef = (V / s) U'y, and (A'A)^-1 = (V / s)(V / s)'
    Vs = Vt.swapaxes(1, 2) * np.divide(1.0, s, out=np.zeros(s.shape), where=keep)[:, None, :]
    DY = D * Y
    coef = (Vs @ (U.swapaxes(1, 2) @ DY[:, :, None]))[:, :, 0]
    resid = DY - (A @ coef[:, :, None])[:, :, 0]
    s2 = np.vecdot(resid, resid) / np.maximum(m - p, 1)
    std_errors = np.sqrt(s2[:, None] * np.vecdot(Vs, Vs))
    errors = dict.fromkeys(np.flatnonzero(keep.sum(axis=1) < p), "singular design")
    errors.update(dict.fromkeys(np.flatnonzero(m <= p), "insufficient selected observations"))
    return coef, s2, std_errors, errors
