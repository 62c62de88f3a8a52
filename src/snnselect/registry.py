"""The intercept estimators by name, how one fit of them is specified, and
the one function that runs it.

``METHODS`` is the one list of valid method names; ``EstimatorConfig`` the
one settings record.  ``fit_thetas`` runs a config over a ``Block`` of
same-shaped datasets, and ``fit`` is that block fit on one dataset; the
five public estimators (``snn_intercept``, ``ols_selected``,
``heckman_two_step``, ``h90_intercept``, ``as98_intercept``) are ``fit``.
A method's ``fit(block, cfg)`` returns its stacked rows and {row: reason}
from one stacked pass; OLS, the two-step's second stage and snn's plug-in
pilot share one stacked least-squares body, ``numerics._ls_rows``.  OLS
and the two-step estimate their own slopes and fit no nuisance.  One
failure rule, in ``_fit_block``, adds to that dict each row's reason, and
no fit is rerun.  The adapters reach the stacked bodies and the nuisance
fit through their modules, so that rebinding a module attribute (as a
profiler or a test does) reaches every call.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, NamedTuple

import numpy as np

from . import baselines, estimator, nuisance, ranks
from .baselines import OlsFit, TailRule, TwoStepFit
from .data import Dataset
from .estimator import BandwidthRule, InterceptEstimate
from .exceptions import EstimationError
from .numerics import _check_order

__all__ = [
    "Method", "METHODS", "EstimatorConfig", "Block", "fit", "fit_thetas",
    "snn_intercept", "ols_selected", "heckman_two_step", "h90_intercept", "as98_intercept",
]


class Method(NamedTuple):
    needs_nuisance: bool
    report: Callable  # result -> the estimate command's JSON fields
    label: Callable  # cfg -> Monte Carlo panel label
    # (block, cfg) -> (rows, errors): the method's fit of every dataset of
    # the block, and {row: reason} for the rows that failed in it
    fit: Callable


def _snn_fit(block, cfg):
    """snn's stacked body, after the check that ``eta_hat`` makes: a zero
    gamma is a "degenerate index"."""
    arrays = block.under(cfg.nuisance)
    flat = dict.fromkeys(np.flatnonzero(~arrays["gamma"].any(axis=1)), "degenerate index")
    try:
        rows, errors = estimator._snn_rows(block.ranks(cfg.nuisance), arrays["index"],
                                           arrays["residuals"], cfg.kernel_order, cfg.bandwidth)
    except EstimationError as exc:  # the plug-in below 30 observations fails every row
        rows = estimator.InterceptEstimate(*[np.full(len(block), math.nan)] * 4)
        errors = dict.fromkeys(range(len(block)), str(exc))
    return rows, {**errors, **flat}


def _h90_fit(block, cfg):
    arrays = block.under(cfg.nuisance)
    return baselines._tail_rows(block.D, arrays["index"], arrays["residuals"], cfg.tail,
                                np.zeros(len(block)))


def _as98_fit(block, cfg):
    arrays = block.under(cfg.nuisance)
    return baselines._as98_rows(block.D, arrays["index"], arrays["residuals"], cfg.tail)


def _fields(*names):
    return lambda result: {name: getattr(result, name) for name in names}


def _snn_label(cfg) -> str:
    bw = cfg.bandwidth
    rule = f"h={bw.value:g}" if bw.kind == "fixed" else f"plugin x{bw.value:g}"
    order = f", order {cfg.kernel_order}" if cfg.kernel_order != 2 else ""
    return f"snn ({rule}{order})"


def _tail_label(name: str):
    return lambda cfg: f"{name} (b_n at {cfg.tail.quantile:g} quantile)"


_TAIL_FIELDS = _fields("theta", "std_error", "effective_n")

METHODS: dict[str, Method] = {
    "snn": Method(True, _fields("theta", "std_error", "bandwidth", "effective_n"), _snn_label,
                  _snn_fit),
    "ols": Method(False, lambda fit: {"theta": fit.theta, "std_error": float(fit.std_errors[0])},
                  lambda cfg: "ols",
                  lambda block, cfg: baselines._ols_rows(block.D, block.X, block.Y)),
    "heckman": Method(False, lambda fit: {"theta": fit.theta, "lambda_coef": fit.lambda_coef},
                      lambda cfg: "heckman",
                      lambda block, cfg: baselines._two_step_rows(block.D, block.X, block.Y, block.Z)),
    "h90": Method(True, _TAIL_FIELDS, _tail_label("h90"), _h90_fit),
    "as98": Method(True, _TAIL_FIELDS, _tail_label("as98"), _as98_fit),
}


@dataclass(frozen=True)
class EstimatorConfig:
    """How one intercept fit is specified.

    ``nuisance`` is where a method that needs beta and gamma gets them:
    ``None`` pins them to the generating values a simulated draw carries
    (the simulation design of record); a name of ``nuisance.GAMMA_METHODS``
    fits them first.  OLS and the two-step estimate their own slopes and
    never use the nuisance either way.
    """

    method: str = "snn"
    kernel_order: int = 2
    bandwidth: BandwidthRule = field(default_factory=BandwidthRule.plug_in)
    tail: TailRule = field(default_factory=TailRule)
    nuisance: str | None = None

    def __post_init__(self) -> None:
        if self.method not in METHODS:
            raise ValueError(f"unknown estimator {self.method!r}; valid: {tuple(METHODS)}")
        _check_order(self.kernel_order)
        if self.nuisance is not None and self.nuisance not in nuisance.GAMMA_METHODS:
            raise ValueError(f"unknown nuisance {self.nuisance!r}; valid: {nuisance.GAMMA_METHODS}")

    @property
    def label(self) -> str:
        return METHODS[self.method].label(self)


def fit(data, config: EstimatorConfig, fitted: dict | None = None):
    """Run one intercept fit; returns (the method's result, the slopes it used).

    This is ``fit_thetas``'s block fit on one dataset; a reason for failing
    is raised as EstimationError.  A method that needs the nuisance takes
    (beta, gamma) from ``fitted[config.nuisance]``.  A missing entry is
    fitted and stored there, or the EstimationError its fit raised, so
    configs that share ``fitted`` share one nuisance fit per gamma method,
    and its failure.  The generating values of ``nuisance=None`` exist only
    for simulated draws, whose caller puts them in ``fitted[None]``; without
    them this raises ValueError.

    A theta or standard error that overflowed to inf or NaN raises
    EstimationError("non-finite <quantity>"); no fit returns one.
    """
    fitted = {} if fitted is None else fitted
    result = _one_row(*_fit_block(Block([data], [fitted]), config))
    return result, (fitted[config.nuisance][0] if METHODS[config.method].needs_nuisance else result.beta)


def _one_row(rows: NamedTuple, errors: dict):
    """A stacked body's R = 1 result: its record with row 0 of each field (a
    Python scalar for a field of one value per row), or its error raised."""
    if errors:
        raise EstimationError(errors[0])
    return rows._make(value[0] if value.ndim > 1 else value[0].item() for value in rows)


def snn_intercept(data: Dataset, beta: np.ndarray, gamma: np.ndarray, kernel_order: int = 2,
                  rule: BandwidthRule | None = None) -> InterceptEstimate:
    """Locally linear boundary estimate of the outcome intercept.

    With ranks eta_i and t_i = eta_i - 1, solves the kernel-weighted least
    squares fit of W on (1, t) and returns the level at t = 0.  The standard
    error is sqrt(sigma2(1) * sum(w_i^2)) with w the equivalent intercept
    weights and sigma2(1) the kernel-weighted mean squared residual of the
    local fit; for h -> 0 this is the finite-sample version of
    sigma2(1) * Int K^2 / (n h).  ``kernel_order`` is one of
    ``numerics.KERNEL_ORDERS``.  This is ``fit`` with (beta, gamma) as the
    nuisance.
    """
    return fit(data, EstimatorConfig("snn", kernel_order, rule or BandwidthRule.plug_in()),
               {None: (beta, gamma)})[0]


def ols_selected(data: Dataset) -> OlsFit:
    """Least squares of y on (1, X) over the selected subsample: ``fit``
    of the method ``ols``."""
    return fit(data, EstimatorConfig("ols"))[0]


def heckman_two_step(data: Dataset) -> TwoStepFit:
    """Two-step correction: probit of d on Z, then least squares of y on
    (1, X, lambda(Z'gamma)) over the selected subsample: ``fit`` of the
    method ``heckman``."""
    return fit(data, EstimatorConfig("heckman"))[0]


def h90_intercept(data: Dataset, beta: np.ndarray, gamma: np.ndarray,
                  rule: TailRule | None = None) -> InterceptEstimate:
    """Mean of the selection-masked residuals over the selected upper tail
    of the index (hard threshold at the ``rule.quantile`` sample quantile):
    the tau = 0 case of ``as98_intercept``'s weighting.  This is ``fit``
    with (beta, gamma) as the nuisance."""
    return fit(data, EstimatorConfig("h90", tail=rule or TailRule()), {None: (beta, gamma)})[0]


def as98_intercept(data: Dataset, beta: np.ndarray, gamma: np.ndarray,
                   rule: TailRule | None = None) -> InterceptEstimate:
    """Smooth-weighted tail mean: weights s(index - b_n) ramp from 0 to 1
    over a span tau set to the ``rule.tau_quantile`` quantile of the index
    over the selected subsample (only selected observations carry weight).
    tau <= 0 reduces to the hard-threshold tail mean.  This is ``fit`` with
    (beta, gamma) as the nuisance."""
    return fit(data, EstimatorConfig("as98", tail=rule or TailRule()), {None: (beta, gamma)})[0]


def _stacked(arrays) -> np.ndarray:
    """``np.stack(arrays)``; for one array, a view of it with a leading axis
    of 1, or of its contiguous copy when it is strided, which is the copy
    ``np.stack`` makes, so the stacked fits read the same bits either way."""
    if len(arrays) == 1:
        return np.ascontiguousarray(arrays[0])[None]
    return np.stack(arrays)


class Block:
    """Datasets of one n and l, each with the ``fitted`` dict that ``fit``
    takes for it, and the stacked arrays that the stacked fits of a block
    share, each built on first use and then kept for every config.  The
    stacked fits only read them: on a block of one they may be the
    dataset's own arrays."""

    def __init__(self, datasets, fitted):
        self.datasets = list(datasets)
        self.fitted = list(fitted)
        self._under = {}

    def __len__(self) -> int:
        return len(self.datasets)

    @cached_property
    def D(self) -> np.ndarray:
        return _stacked([data.d for data in self.datasets])

    @cached_property
    def Z(self) -> np.ndarray:
        return _stacked([data.Z for data in self.datasets])

    @cached_property
    def X(self) -> np.ndarray:
        return _stacked([data.X for data in self.datasets])

    @cached_property
    def Y(self) -> np.ndarray:
        return _stacked([data.y for data in self.datasets])

    def under(self, key) -> dict:
        """The block's arrays under the nuisance ``key``, where each row has
        its own dataset's (beta, gamma) from ``fitted[key]``.  A missing
        entry is fitted and stored there, or the EstimationError its fit
        raised.  A beta that is not of shape (k,), or a gamma not of shape
        (l,), raises ValueError.  ``errors``, {row: the message of its stored
        nuisance error} (such a row holds zeros below); ``gamma`` (R, l);
        ``index`` (R, n), each row bitwise data.Z @ gamma; ``residuals``
        (R, n), each row bitwise ``residualized_outcome(data, beta)``."""
        if key not in self._under:
            errors = {}
            B = np.zeros((len(self), self.datasets[0].k))
            G = np.zeros((len(self), self.datasets[0].l))
            for i, (data, fitted) in enumerate(zip(self.datasets, self.fitted)):
                if key not in fitted:
                    if key is None:
                        raise ValueError("nuisance=None needs the generating beta and gamma"
                                         " of a simulated draw")
                    try:
                        est = nuisance.fit_nuisance(data, key)
                        fitted[key] = (est.beta, est.gamma)
                    except EstimationError as exc:
                        fitted[key] = exc
                if isinstance(fitted[key], EstimationError):
                    errors[i] = str(fitted[key])
                    continue
                beta, gamma = fitted[key]
                if np.shape(beta) != B.shape[1:] or np.shape(gamma) != G.shape[1:]:
                    raise ValueError(f"beta and gamma need shapes {B.shape[1:]} and {G.shape[1:]},"
                                     f" not {np.shape(beta)} and {np.shape(gamma)}")
                B[i], G[i] = beta, gamma
            self._under[key] = {"errors": errors, "gamma": G,
                                "index": (self.Z @ G[:, :, None])[:, :, 0],
                                "residuals": self.D * (self.Y - (self.X @ B[:, :, None])[:, :, 0])}
        return self._under[key]

    def ranks(self, key) -> np.ndarray:
        """(R, n) rank transform of ``under(key)["index"]``."""
        arrays = self.under(key)
        if "ranks" not in arrays:
            arrays["ranks"] = ranks._rank_rows(arrays["index"])
        return arrays["ranks"]


def _fit_block(block: Block, config: EstimatorConfig):
    """The method's rows over the block, and the failure rule: {row: reason}
    for every row whose fit does not stand.  The first that applies wins:
    the row's stored nuisance error, the method's error, a non-finite
    theta, a non-finite standard error."""
    method = METHODS[config.method]
    with np.errstate(over="ignore", invalid="ignore"):
        stored = block.under(config.nuisance)["errors"] if method.needs_nuisance else {}
        rows, errors = method.fit(block, config)
    errors = {**errors, **stored}
    for name in ("theta", "std_error", "std_errors"):
        value = getattr(rows, name, None)
        if value is not None:
            finite = np.isfinite(value).reshape(len(block), -1).all(axis=1)
            for row in np.flatnonzero(~finite):
                errors.setdefault(row, f"non-finite {name}")
    return rows, errors


def fit_thetas(block: Block, config: EstimatorConfig) -> np.ndarray:
    """``fit(block.datasets[i], config, block.fitted[i])[0].theta`` for
    every i, NaN where that raises EstimationError: one block fit of every
    dataset, with no fit rerun."""
    rows, errors = _fit_block(block, config)
    thetas = np.array(rows.theta, dtype=float)
    thetas[list(errors)] = math.nan
    return thetas
